"""Convex subproblem solvers: the box QP, the code solve and the block solve.

solve_box_qp minimizes sum_i x_i'G x_i - 2 c_i'x_i + lam ||x_i||_1 (lam >= 0)
over a box lo <= X <= up, every row of C against one symmetric PSD (k, k)
Hessian G, or a stack of K such families, each with its own G.  At k = 2 the
minimizer is exact (_pairs): a row keeps its start's KKT pattern if that
pattern's candidate, by Cramer's rule in Python floats, is a KKT point, and
otherwise enumerates every pattern and keeps the first best candidate in the
box; a free system that is not positive raises LinAlgError, and the solve
then takes the tie-break G + delta I.  At every other k a primal active-set
method (_active_set) takes Newton steps on the free entries, releasing one
fixed entry per row while its gap says it can improve, and stops once the
certified gap is <= tol.  A Hessian has one definiteness certificate
(_definite: a Cholesky factorization of G - 1e-9 scale I, which covers every
free system of every G + mu I): under it a Newton step is one batched LU
solve, without it an eigendecomposition.  The certified gap, the sum of the
entry gaps plus a rounding allowance (_certified_gap; at k = 2
_pair_gap_loop), bounds the total suboptimality of X; solve_code_lasso (G =
W'W) returns it as its certificate.

solve_block_quadratic minimizes a FactorQuad over whole rows in the box
intersected with the ball of radius c' w_n around the anchor (center in the
box).  ball_multiplier_search dualizes the ball with one multiplier mu,
takes each working set's secular root and point (_working_set_root) and
keeps a point on the sphere whose dualized certified gap is <= tol, else a
box solve from it gives the next working set, inside a bisection bracket.
Its certificate is the objective at the anchor and at the result; a rise
raises SubsolverError.  A solve reads its box from one _BoxFamily per (lam,
box, k); on a box with every lo >= 0, lam ||x||_1 is linear (no sign state).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .geometry import BoxSet, GeometryError
from .quadform import FactorQuad

__all__ = [
    "solve_box_qp",
    "solve_code_lasso",
    "solve_block_quadratic",
    "SubsolverError",
]

MAX_ITERS = 100_000
# a fixed entry whose gap is below this fraction of the gradient scale times
# its box width is optimal up to rounding
_RELEASE_RTOL = 1e-12
# eigenvalues below this fraction of the Hessian scale count as zero
_NULL_RTOL = 1e-12
# a Hessian whose eigenvalues are all above this fraction of its scale is
# certified once for all its free systems (_definite); 1000 times
# _NULL_RTOL, so the rounding of a few ulps of the scale cannot matter
_DEFINITE_RTOL = 1e-9
# a ball search ends on the sphere up to this fraction of the radius, or on
# a bracket this narrow; its steps and each secular root's are capped
BALL_RTOL = 1e-12
BALL_MAX_ITERS = 200
_EPS = float(np.finfo(float).eps)
# entry states of a KKT pattern
_LO, _UP, _FREE, _POS, _NEG, _ZERO = range(6)


class SubsolverError(RuntimeError):
    """Iteration cap exceeded or invalid subproblem."""


# ---------------------------------------------------------------------------
# batched box QP


def _entry_gaps(grad, X, box):
    """Per entry, sup over v in [lo, up] of grad*(x - v) + lam(|x| - |v|).

    The sup is attained where the concave -grad*v - lam|v| peaks on the
    interval: at up when grad < -lam, at lo when grad > lam, else at the
    clipped zero; on a box with every lo >= 0 that is lo unless grad < -lam,
    and lam(|x| - |v|) = lam (x - v).  By convexity the sum bounds the
    suboptimality of X; an entry's term is zero iff moving it alone cannot
    improve the linearized objective.
    """
    lam, lo, up = box.lam, box.lo, box.up
    if lam > 0 and box.sign:
        d = X - np.where(grad < -lam, up, lo)
        return grad * d + lam * d
    if lam > 0:
        v = np.where(grad < -lam, up, np.where(grad > lam, lo, box.zero))
        return grad * (X - v) + lam * (np.abs(X) - np.abs(v))
    return grad * (X - np.where(grad < 0.0, up, lo))


def _certified_gap(G, C, X, box):
    """Bound on the total objective suboptimality of X in the box: the sum of
    the entry gaps plus an allowance for the rounding in computing them
    (_gap_total).  One family (G of shape (k, k), C and X of shape (n, k))
    gives a float; a stack (G of shape (K, k, k), C and X of shape (K, n,
    k)) one per member, each summed over that member's entries alone, as its
    own family would be.  A code solve at rank 2 takes the closed form's own
    gap instead, in its floats (_pair_gap_loop); this one serves the
    active-set method (a polish included) and the ball search's exit."""
    gaps = _entry_gaps(2.0 * (X @ G - C), X, box)
    return _gap_total(gaps, X, np.abs(G), np.abs(C), box)


def _gap_total(gaps, X, absG, absC, box):
    """The certified gap from the entry gaps of X, given |G| and |C|.  A
    gradient entry is off by at most about (k + 1) ulps of |2 X G| + |2 C|;
    that error, a wrong pick of the attaining endpoint it may cause, and the
    few roundings of the term itself each cost a few ulps of (|gradient| + lam)
    times the width (the reach).  Summing n terms adds n ulps of their sizes'
    sum.  On a box with every lo >= 0, |X| = X and every entry gap is >= 0, so
    the gaps are summed once."""
    sign = box.sign
    XA = X @ absG if sign else np.abs(X) @ absG
    reach = (2.0 * (XA + absC) + box.lam) * box.width
    weight = 2 * (absG.shape[-1] + 4)
    if absG.ndim == 2:
        total = float(gaps.sum())
        abs_total = total if sign else float(np.abs(gaps).sum())
        return max(0.0, total) + _EPS * (weight * float(reach.sum()) + gaps.size * abs_total)
    size = gaps.size // len(gaps)
    totals = gaps.sum(axis=(1, 2)).tolist()
    abs_totals = totals if sign else np.abs(gaps).sum(axis=(1, 2)).tolist()
    sums = zip(totals, reach.sum(axis=(1, 2)).tolist(), abs_totals)
    return np.array([max(0.0, total) + _EPS * (weight * r + size * a) for total, r, a in sums])


class _BoxFamily:
    """What every box QP over one box [lo, up] (bounds (K, n, k): a box per
    stack member) reads of it, derived once per (lam, box, k): the KKT
    states (at k = 2, enumerable, the closed form's patterns: pair_rows),
    the clipped zero, the width, the release floor's max |bound|, and sign:
    1 if every lo >= +0.0, else 0.  On a box with sign 1 lam ||x||_1 = lam
    sum(x) is linear, and the solvers keep no sign state; every other box,
    one with every up <= 0 included, takes the general path."""

    def __init__(self, lam, lo, up, k):
        lo, up = np.asarray(lo, dtype=float), np.asarray(up, dtype=float)
        self.lam, self.lo, self.up, self.k, self.heads = lam, lo, up, k, {}
        self.width, self.bound = up - lo, max(float(np.abs(lo).max()), float(np.abs(up).max()))
        self.sign = 0 if np.signbit(lo).any() else 1
        self.states = (_LO, _UP, _FREE)
        if lam > 0:
            self.lo_pos, self.up_neg = np.maximum(lo, 0.0), np.minimum(up, 0.0)
            self.zero = np.minimum(self.lo_pos, up)
            self.states = ((_LO, _UP) + ((_POS,) if up.max() > 0.0 else ())
                           + ((_NEG,) if lo.min() < 0.0 else ())
                           + ((_ZERO,) if ((lo < 0.0) & (up > 0.0)).any() else ()))
        self.enumerable = k == 2

    @cached_property
    def pair_index(self):
        """Each pattern's position in pair_rows' order, by its (state0, state1)."""
        return {p: i for i, p in enumerate(itertools.product(self.states, repeat=2))}

    @cached_property
    def pair_rows(self):
        """The closed form's constants in Python floats (k = 2): per
        member, per row, (lo0, up0, lo1, up1, patterns), each pattern
        (free0, free1, v0, v1, shift0, shift1, sign0, sign1) in
        itertools.product order, v an entry's value when fixed and shift its
        l1 shift lam s / 2; one member, or one row, stands for all when the
        box's bounds are alike."""
        states = list(itertools.product(self.states, repeat=2))
        half = 0.5 * self.lam

        def row(lo0, up0, lo1, up1):
            def entry(s, lo, up):
                sgn = 1.0 if s == _POS else -1.0 if s == _NEG else 0.0
                value = lo if s == _LO else up if s == _UP else 0.0
                return s in (_FREE, _POS, _NEG), value, half * sgn, sgn
            pats = []
            for s0, s1 in states:
                (f0, v0, h0, t0), (f1, v1, h1, t1) = entry(s0, lo0, up0), entry(s1, lo1, up1)
                pats.append((f0, f1, v0, v1, h0, h1, t0, t1))
            return lo0, up0, lo1, up1, tuple(pats)
        # lo and up as (K, n, 2), K and n 1 where shared
        shape = np.broadcast_shapes(self.lo.shape, self.up.shape, (1, 1, 2))
        L, U = np.broadcast_to(self.lo, shape), np.broadcast_to(self.up, shape)
        B = np.stack((L[..., 0], U[..., 0], L[..., 1], U[..., 1]), axis=-1)
        if B.tobytes() == B[:1, :1].tobytes() * (B.size // 4):
            return ((row(*B[0, 0].tolist()),),)
        return tuple(tuple(row(*b) for b in member) for member in B.tolist())

    def rows(self, rows):
        """The family of rows (m,) or (K, m): the first m rows' if all are alike."""
        m = rows.shape[-1]
        if m not in self.heads:
            same = all(a.tobytes() == a[:1].tobytes() * len(a) for a in (self.lo, self.up))
            self.heads[m] = same and _BoxFamily(self.lam, self.lo[:m], self.up[:m], self.k)
        return self.heads[m] or _BoxFamily(self.lam, self.lo[rows], self.up[rows], self.k)

    def member(self, j):
        """Member j's family: its own if the stack has a box per member."""
        return self if self.lo.ndim < 3 else _BoxFamily(self.lam, self.lo[j], self.up[j], self.k)


def _family_of(box: BoxSet, lam, shape) -> _BoxFamily:
    """The family of solves over box, bounds in shape (rows, k), kept with it."""
    if (lam, shape) not in box.derived:
        box.derived[lam, shape] = _BoxFamily(lam, box.lower.reshape(shape),
                                             box.upper.reshape(shape), shape[-1])
    return box.derived[lam, shape]


# the rank-2 closed form, in Python floats


def _pair_objective(a, b, c, lam, x0, x1, c0, c1):
    """x'Gx - 2c'x + lam ||x||_1 as x0 (g0 - 2 c0) + x1 (g1 - 2 c1) + lam
    (|x0| + |x1|), g = x G."""
    obj = x0 * (a * x0 + b * x1 - 2.0 * c0) + x1 * (b * x0 + c * x1 - 2.0 * c1)
    return obj + lam * (abs(x0) + abs(x1)) if lam else obj


def _pair_candidate(a, b, c, det, c0, c1, pattern):
    """One pattern's candidate (x0, x1) against G = [[a, b], [b, c]]: its
    fixed entries at their values v, its free ones solving G_FF x_F = h_F -
    G_FX v_X, h = (c0, c1) - lam s / 2, by Cramer's rule."""
    f0, f1, v0, v1, s0, s1, _, _ = pattern
    if f0 and f1:
        h0, h1 = c0 - s0, c1 - s1
        return (c * h0 - b * h1) / det, (a * h1 - b * h0) / det
    if f0:
        return (c0 - s0 - b * v1) / a, v1
    if f1:
        return v0, (c1 - s1 - b * v0) / c
    return v0, v1


def _pair_inside(x0, x1, lo0, up0, lo1, up1, t0, t1, signed):
    """Whether a candidate lies in the box with the signs t its pattern
    assumes (only tested if signed: a box with every lo >= 0 implies them)."""
    inside = lo0 <= x0 <= up0 and lo1 <= x1 <= up1
    return inside and x0 * t0 >= 0.0 and x1 * t1 >= 0.0 if signed else inside


def _start_state(y, lo, up, lam, zero):
    """The KKT state of an entry that starts at y: _LO or _UP at a bound,
    _ZERO at 0 if the box has a zero state (zero), else free with y's sign
    (_FREE without an l1 term); nan, no start, is free and positive."""
    if y == lo:
        return _LO
    if y == up:
        return _UP
    if zero and y == 0.0:
        return _ZERO
    return (_NEG if y < 0.0 else _POS) if lam else _FREE


def _pair_gap(x0, x1, p, q, c, x, lo, up, lam, sign):
    """One entry's gap and reach at the row (x0, x1) of a rank-2 family, the
    terms _entry_gaps and _gap_total sum: (p, q) is the entry's column of
    G, and c, x, lo and up are the entry's own."""
    y0, y1 = (x0, x1) if sign else (abs(x0), abs(x1))
    reach = (2.0 * (y0 * abs(p) + y1 * abs(q) + abs(c)) + lam) * (up - lo)
    return _pair_term(x0, x1, p, q, c, x, lo, up, lam, sign), reach


def _pair_term(x0, x1, p, q, c, x, lo, up, lam, sign):
    """_pair_gap's gap term alone: zero exactly when moving the entry alone
    into the box cannot lower the linearized objective."""
    g = 2.0 * (x0 * p + x1 * q - c)
    if lam and not sign:
        # between -lam and lam the clipped zero attains the gap
        v = up if g < -lam else lo if g > lam else lo if lo > 0.0 else up if up < 0.0 else 0.0
        return g * (x - v) + lam * (abs(x) - abs(v))
    d = x - (up if g < -lam else lo)
    return g * d + lam * d if lam else g * d


def _pairs(G, C, box, certify=False, X0=None):
    """Exact minimizer of a rank-2 family, or of a stack member by member.

    A row first takes its start's KKT pattern (_start_state; a nan entry is
    free) and keeps that pattern's candidate, by Cramer's rule
    (_pair_candidate), if it is a KKT point: in the box, with the pattern's
    signs, and every fixed entry's gap term (_pair_term) exactly zero.  Any
    other row enumerates the patterns and keeps the first minimum in the box
    in itertools.product order.  A free system that is not positive raises
    LinAlgError.  X0 is an array of C's shape, nan where there is no start
    (None: nan everywhere).  Returns (X, free, gap): free lists each row's
    free flags (_free_mask), gap the certificate if certify (_pair_gap_loop;
    a float, or one per member), else None."""
    rows = box.pair_rows
    starts = None if X0 is None else X0.tolist()
    if G.ndim == 2:
        X, free, gap = _pairs_loop(G.tolist(), C.tolist(), rows[0], box, certify, starts)
    else:
        # the stack's floats in one conversion each, then member by member
        X, free, gap = [], [], []
        for j, (Gj, Cj) in enumerate(zip(G.tolist(), C.tolist())):
            Xj, free_j, gap_j = _pairs_loop(Gj, Cj, rows[j if len(rows) > 1 else 0], box,
                                            certify, None if starts is None else starts[j])
            X += Xj
            free += free_j
            gap.append(gap_j)
        gap = np.array(gap) if certify else None
    return np.array(X).reshape(C.shape), free, gap


def _free_mask(free, shape):
    """The free mask of shape from a solve's free flags: _pairs' list of
    flag pairs, or the active-set method's mask as it is."""
    return np.asarray(free, dtype=bool).reshape(shape)


def _pairs_loop(G, C, rows, box, certify, start):
    """One family's rows, G, C and start as nested lists of Python floats:
    each row's (x0, x1) and free flags, and X's certified gap if certify
    (_pair_gap_loop), else None.  rows holds each row's bounds and patterns
    (one for all if alike; _BoxFamily.pair_rows); start is the rows' start
    (nan: none), or None."""
    (a, b), (_, c) = G
    det = a * c - b * b
    if a <= 0.0 or c <= 0.0 or det <= 0.0:
        raise np.linalg.LinAlgError("a free system of the rank-2 closed form is not positive")
    lam, sign, index, zero = box.lam, box.sign, box.pair_index, _ZERO in box.states
    signed = lam > 0 and not sign  # the sign test a box with lo >= 0 implies
    rows = rows * len(C) if len(rows) == 1 else rows
    start = [(math.nan, math.nan)] * len(C) if start is None else start
    X, F = [], []
    for (c0, c1), (lo0, up0, lo1, up1, pats), (y0, y1) in zip(C, rows, start):
        p = index.get((_start_state(y0, lo0, up0, lam, zero),
                       _start_state(y1, lo1, up1, lam, zero)))
        if p is not None:
            f0, f1, _, _, _, _, t0, t1 = pats[p]
            x0, x1 = _pair_candidate(a, b, c, det, c0, c1, pats[p])
            if (_pair_inside(x0, x1, lo0, up0, lo1, up1, t0, t1, signed)
                    and (f0 or _pair_term(x0, x1, a, b, c0, x0, lo0, up0, lam, sign) == 0.0)
                    and (f1 or _pair_term(x0, x1, b, c, c1, x1, lo1, up1, lam, sign) == 0.0)):
                X.append((x0, x1))
                F.append((f0, f1))
                continue
        best = None
        for pat in pats:
            x0, x1 = _pair_candidate(a, b, c, det, c0, c1, pat)
            if _pair_inside(x0, x1, lo0, up0, lo1, up1, pat[6], pat[7], signed):
                obj = _pair_objective(a, b, c, lam, x0, x1, c0, c1)
            else:
                obj = math.inf
            # the first minimum, or the first nan, as argmin picks it
            if best is None or obj < best or (obj != obj and best == best):
                best, x, free = obj, (x0, x1), pat[:2]
        X.append(x)
        F.append(free)
    return X, F, _pair_gap_loop(a, b, c, C, X, rows, lam, sign) if certify else None


def _pair_gap_loop(a, b, c, C, X, rows, lam, sign):
    """The certified gap (_gap_total's, at k = 2) of one rank-2 family's rows
    X (pairs of Python floats) against G = [[a, b], [b, c]] and the rows C:
    _pair_gap per entry, each sum taken entry after entry in row order.
    rows holds each row's bounds first (_BoxFamily.pair_rows, one per row)."""
    total = reach = abs_total = -0.0  # the identity of float addition
    for (x0, x1), (c0, c1), (lo0, up0, lo1, up1, _) in zip(X, C, rows):
        e0, r0 = _pair_gap(x0, x1, a, b, c0, x0, lo0, up0, lam, sign)
        e1, r1 = _pair_gap(x0, x1, b, c, c1, x1, lo1, up1, lam, sign)
        total = total + e0 + e1
        reach = reach + r0 + r1
        if not sign:
            abs_total = abs_total + abs(e0) + abs(e1)
    abs_total = total if sign else abs_total
    return (total if total > 0.0 else 0.0) + _EPS * (2 * (2 + 4) * reach + 2 * len(X) * abs_total)


def _scale(G) -> float:
    """The Hessian scale: G's largest entry in absolute value, or 1 if G is 0."""
    return float(np.abs(G).max()) or 1.0


def _free_system(G, free, scale):
    """Per row, G_FF on the free entries F, extended to all k entries by
    scale on the diagonal of the fixed ones, which decouples them."""
    return np.where(free[:, :, None] & free[:, None, :], G, scale * _eye(G.shape[0]))


@lru_cache(maxsize=16)
def _eye(k: int) -> np.ndarray:
    """The (k, k) identity, built once per size and shared read-only."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def _definite(G) -> bool:
    """The box QP's one definiteness test, a certificate per Hessian G:
    whether G - delta * scale * I, delta = _DEFINITE_RTOL, has a Cholesky
    factorization.  It shows lambda_min(G) >= delta * scale up to rounding
    of a few ulps of scale, so every free system of G + mu I (mu >= 0, of
    scale at most scale + mu) has smallest eigenvalue at least delta *
    (scale + mu), far above _NULL_RTOL times its scale, and an LU solve
    needs no null-space handling.  An uncertified G takes eigh and pinv."""
    try:
        np.linalg.cholesky(G - (_DEFINITE_RTOL * _scale(G)) * _eye(len(G)))
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_direction(G, free, rhs, scale, certified):
    """Per row, the least-norm solution p of G_FF p_F = rhs_F on the free
    entries F, where rhs vanishes off F.  Where rhs_F has a part in the null
    space of G_FF, that part is returned instead, flagged in the second
    output: with rhs = -grad/2 it is a descent direction of zero curvature.
    Every row's system is one batched LU solve when G is certified
    (_definite); otherwise an eigendecomposition finds the null spaces."""
    M = _free_system(G, free, scale)
    if certified:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0], np.zeros(len(rhs), dtype=bool)
    w, V = np.linalg.eigh(M)
    coef = np.einsum("nkj,nk->nj", V, rhs)
    null = w <= _NULL_RTOL * scale
    null_part = np.where(null, coef, 0.0)
    null_dir = np.sum(null_part * null_part, axis=1) > _NULL_RTOL * np.sum(coef * coef, axis=1)
    step = np.where(null, 0.0, coef / np.where(null, 1.0, w))
    step = np.where(null_dir[:, None], null_part, step)
    return np.einsum("nkj,nj->nk", V, step), null_dir


def _active_set(G, C, box, X, tol, predicted, certified):
    """Primal active-set method from a point X of the box, for one member
    (G of shape (k, k), C and X of shape (n, k)).  Works for any PSD G.
    Returns its last iterate, working set (True where fixed) and the
    certified gap it stopped on (None if it stopped without one): the
    minimizer, or the first point where every row sits at its working-set
    minimizer and the certified gap is <= tol.  predicted says that X is
    every row's working-set minimizer (a ball search's point), as if
    each row had just taken a full Newton step, so the method opens with
    the certified gap.  certified is G's certificate (_definite): every
    Newton step is one LU solve when it holds, an eigendecomposition when
    it does not."""
    n, k = C.shape
    lam, lo, up = box.lam, box.lo, box.up
    # the l1 term bends the objective at zero unless every lo >= 0
    kink = lam > 0 and not box.sign
    fixed = (X == lo) | (X == up)
    if kink:
        fixed |= X == 0.0
        # a free entry stays in its sign region until a step hits zero
        sgn = np.sign(X)
    # the solve's constants, each computed once (the release floor once a
    # row first reaches its working-set minimizer)
    absG, absC = np.abs(G), np.abs(C)
    scale = float(absG.max()) or 1.0  # _scale(G)
    floor = None
    # rows sitting at their working-set minimizer
    at_min = np.ones(n, dtype=bool) if predicted else fixed.all(axis=1)
    for _ in range(MAX_ITERS):
        grad = 2.0 * (X @ G - C)
        n_at_min = np.count_nonzero(at_min)
        gaps = None
        if tol > 0.0 and n_at_min == n:
            gaps = _entry_gaps(grad, X, box)
            gap = _gap_total(gaps, X, absG, absC, box)
            if gap <= tol:
                return X, fixed, gap
        moving = ~at_min
        go = None  # the rows that release an entry
        if n_at_min:
            if floor is None:
                g_scale = 2.0 * (k * scale * box.bound + float(absC.max())) + lam
                floor = _RELEASE_RTOL * g_scale * box.width
                cols = np.arange(k)
            # a row at its working-set minimizer releases the fixed entry
            # with the largest gap, if that entry can still improve
            if gaps is None:
                gaps = _entry_gaps(grad, X, box)
            cand = np.where(fixed, gaps - floor, 0.0)
            j = cand.argmax(axis=1)
            go = at_min & (cand.max(axis=1) > 0.0)
            moving |= go
            if not moving.any():
                return X, fixed, None
            release = go[:, None] & (cols == j[:, None])
            fixed = fixed ^ release  # a released entry is a fixed one
        free = ~fixed & moving[:, None]
        if kink:
            if go is not None and go.any():
                # a released entry at zero heads for the point that attains its
                # gap (see _entry_gaps); elsewhere it keeps the sign it has
                target = np.where(grad < -lam, up, np.where(grad > lam, lo, box.zero))
                sgn = np.where(release, np.where(X != 0.0, np.sign(X), np.sign(target)), sgn)
            a = np.where(sgn > 0, box.lo_pos, lo)
            b = np.where(sgn < 0, box.up_neg, up)
            gf = np.where(free, grad + lam * sgn, 0.0)
        else:
            a, b = lo, up
            gf = np.where(free, grad + lam if lam else grad, 0.0)
        p, null_dir = _newton_direction(G, free, -0.5 * gf, scale, certified)
        Y = X + p
        if (certified or not null_dir.any()) and (((Y > a) & (Y < b)) | ~free).all():
            # no bound (or zero) blocks any row's full step: every moving row
            # reaches its working-set minimizer
            X = np.where(free, Y, X)
            at_min |= moving
            continue
        # t = 1 reaches the working-set minimizer unless a bound (or zero)
        # blocks first; a zero-curvature direction (never one of a certified
        # G) runs until it is blocked
        end = np.where(p > 0, b, a)
        t_hit = np.divide(end - X, p, out=np.full((n, k), np.inf), where=free & (p != 0.0))
        t_block = t_hit.min(axis=1)
        blocked = t_block <= (1.0 if certified else np.where(null_dir, np.inf, 1.0))
        t = np.where(blocked, t_block, 1.0)
        X = np.where(free, np.minimum(np.maximum(X + t[:, None] * p, a), b), X)
        hit = free & blocked[:, None] & (t_hit <= t_block[:, None])
        X = np.where(hit, end, X)
        fixed = fixed | hit
        at_min = np.where(moving, ~blocked, at_min)
    raise SubsolverError("box QP active-set iteration cap exceeded")


def _least_squares(G, C, certified):
    """C G^+, the least-squares minimizer of each row's smooth part: one
    solve when G is certified (_definite), else by the pseudo-inverse."""
    if certified:
        return np.linalg.solve(G, C.T).T
    return C @ np.linalg.pinv(G, hermitian=True)


def _start(G, C, X0, certified):
    """The active-set method's start, before clipping: X0 with its nan
    entries at the least-squares minimizer's (all of it if X0 is None)."""
    if X0 is None:
        return _least_squares(G, C, certified)
    nan = np.isnan(X0)
    return np.where(nan, _least_squares(G, C, certified), X0) if nan.any() else X0


def _minimize(G, C, box, X0, tol, predicted=False, certified=None, certify=False):
    """Minimizer of the solve_box_qp objective over the box family box: by
    the closed form at rank 2 (_pairs), else by the active-set method from
    X0 clipped into the box (_start), stopped once the certified gap is <=
    tol.  X0 is an array of C's shape, nan where there is no start (None:
    nan everywhere); at rank 2 it gives each row its first pattern and the
    tie-break of a singular G its anchor (nan: the clipped zero).  predicted
    says that X0 is every row's working-set minimizer, inside the box.
    Returns (X, free flags (_free_mask), the certified gap the active-set
    method stopped on or, if certify, the closed form's (else None), G's
    definiteness certificate (_definite; taken if None)).  A stack takes the
    closed form in one _pairs call, else runs member by member; its gaps are
    an array, nan for a member without one, its certificates a list."""
    stack = G.ndim == 3
    if box.enumerable:
        try:
            X, free, gap = _pairs(G, C, box, certify, X0)
            return X, free, gap, [None] * len(C) if stack else certified
        except np.linalg.LinAlgError:
            if not stack:
                # singular G: adding delta ||x - X0||^2 makes the minimizer
                # unique and picks the one nearest X0 up to O(delta)
                delta = _NULL_RTOL * _scale(G)
                X0 = np.clip(0.0 if X0 is None else np.nan_to_num(X0, nan=0.0), box.lo, box.up)
                X, free, _ = _pairs(G + delta * _eye(2), C + delta * X0, box)
                return X, free, None, certified
            # a singular member of a stack: each member alone, so only its solve changes
    if stack:
        parts = [_minimize(G[j], C[j], box.member(j), None if X0 is None else X0[j], tol,
                           certify=certify) for j in range(len(C))]
        gap = np.array([np.nan if p[2] is None else p[2] for p in parts])
        return (np.stack([p[0] for p in parts]), np.stack([p[1] for p in parts]),
                None if np.isnan(gap).all() else gap, [p[3] for p in parts])
    if certified is None:
        certified = _definite(G)
    if not predicted:
        X0 = np.clip(_start(G, C, X0, certified), box.lo, box.up)
    X, fixed, gap = _active_set(G, C, box, X0, tol, predicted, certified)
    return X, ~fixed, gap, certified


def solve_box_qp(G, C, lo, up, lam: float = 0.0, X0=None, tol: float = 1e-8):
    """Minimize sum_i x_i'G x_i - 2 c_i'x_i + lam ||x_i||_1 over lo <= X <= up:
    one problem per row of C (n, k), all against one symmetric PSD G (k, k),
    lo and up broadcast to (n, k); or a stack, G (K, k, k) and C (K, n, k),
    lo and up (n, k) or (K, n, k).  Rank 2 is exact in closed form, every
    other rank takes the active-set method, polished while a gap exceeds
    tol.  X0 is an array of C's shape, nan where there is no start (None:
    nan everywhere; another shape raises ValueError): at rank 2 each row's
    first KKT pattern (nan: free) and a singular G's tie-break anchor (nan:
    the clipped zero), elsewhere the active-set start (nan: the clipped
    least-squares C G^+).  Returns (X, gap), gap the certified bound on X's
    suboptimality: a float, or one per member (README, Invariants).
    """
    G = np.asarray(G, dtype=float)
    C = np.asarray(C, dtype=float)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    return _solve(G, C, _BoxFamily(float(lam), lo, up, C.shape[-1]), _start_array(X0, C.shape),
                  tol)


def _start_array(X0, shape):
    """X0 as a float array of shape (None stays None); another shape raises
    ValueError naming both."""
    if X0 is None:
        return None
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != shape:
        raise ValueError(f"a start of shape {X0.shape} for a solution of shape {shape}")
    return X0


def _solve(G, C, box, X0, tol):
    """solve_box_qp over the box family box."""
    X, _, gap, _ = _minimize(G, C, box, X0, tol, certify=True)
    if G.ndim == 2:
        return _polish(G, C, box, X, gap, tol)
    if gap is None:
        gap = _certified_gap(G, C, X, box)
    for j, g in enumerate(gap.tolist()):
        if not g <= tol:  # above tol, or nan: not known yet
            X[j], gap[j] = _polish(G[j], C[j], box.member(j), X[j],
                                   None if math.isnan(g) else g, tol)
    return X, gap


def _polish(G, C, box, X, gap, tol):
    """(X, its certified gap) of one family, X polished by the active-set
    method while its gap (computed here when None) exceeds tol; the
    active-set method hands back the gap it stopped on."""
    if gap is None:
        gap = _certified_gap(G, C, X, box)
    if gap > tol:
        X, _, gap = _active_set(G, C, box, X, tol, False, _definite(G))
        if gap is None:
            gap = _certified_gap(G, C, X, box)
    return X, gap


# ---------------------------------------------------------------------------
# box QP over box-intersect-ball


def _secular_root(model, radius: float, lo: float, hi: float) -> float:
    """The root in (lo, hi) of const + sum_j a_j / (w_j + nu)^2 = radius^2,
    for model = (const, a, w) with a, w >= 0, or nan if there is none.
    Newton steps on the left side's inverse square root minus 1/radius,
    concave and increasing in nu (Moré & Sorensen, 1983), approach the root
    from the left without overshoot; bisection steps guard against rounding.
    """
    const, a, w = model
    keep = a > 0.0
    a, w = a[keep], w[keep]
    target = radius * radius
    if a.size == 0 or const + float(np.sum(a / (w + hi) ** 2)) >= target:
        return math.nan
    if lo + float(w.min()) > 0.0:  # else lo is a pole, where the model is infinite
        if const + float(np.sum(a / (w + lo) ** 2)) <= target:
            return math.nan
        nu = lo
    else:
        nu = 0.5 * (lo + hi)
    for _ in range(BALL_MAX_ITERS):
        t = w + nu
        s = a / (t * t)  # the bytes of (w + nu) ** 2, which numpy computes as a square
        dist2 = const + float(s.sum())
        if dist2 > target:
            lo = nu
        else:
            hi = nu
        slope = float((s / t).sum())  # -1/2 times that of dist2
        step = dist2 * (math.sqrt(dist2) / radius - 1.0) / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * _EPS * nu or hi - lo <= 4.0 * _EPS * hi:
            break
        nu += step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return nu


def _distance(x: np.ndarray, center: np.ndarray) -> float:
    """||x - center||_F, np.linalg.norm's float without its call overhead."""
    u = (x - center).ravel()
    return math.sqrt(u.dot(u))


def _ball_is_center(center, radius) -> bool:
    """Whether radius is numerically zero at center: the ball is its center."""
    return radius <= BALL_RTOL * (1.0 + float(np.linalg.norm(center)))


def _mu_hi(G, C, center, radius) -> float:
    """A multiplier whose box solve lies in the ball: ||X(mu) - center|| <=
    ||xi|| / mu for the gradient xi at center, by strong convexity."""
    return float(np.linalg.norm(2.0 * (center @ G - C))) / radius


def _working_set_root(G, C, box, center, radius, free, z, lo, hi):
    """(mu, X): the secular root mu in (lo, hi) of the working set (free,
    z), z the fixed values and center on free, and its minimizer X there,
    or (nan, None).  With G_FF = V diag(w) V' per row, X(nu)_F = z_F + V
    (coef / (w + nu)) for coef = V'(C - z G)_F, so ||X(nu) - center||^2 =
    ||z - center||^2 + sum_j coef_j^2 / (w_j + nu)^2.  Free entries that X
    carries across a bound are fixed there and the model is solved again,
    one eigendecomposition per round, until X is in the box."""
    scale = _scale(G)
    while True:
        w, V = np.linalg.eigh(_free_system(G, free, scale))
        w = np.maximum(w, 0.0)  # G is PSD
        coef = np.einsum("nkj,nk->nj", V, np.where(free, C - z @ G, 0.0))
        u = (z - center).ravel()
        mu = _secular_root((float(u.dot(u)), (coef * coef).ravel(), w.ravel()), radius, lo, hi)
        if not lo < mu < hi:
            return math.nan, None
        X = np.where(free, z + np.einsum("nkj,nj->nk", V, coef / (w + mu)), z)
        inside = (X >= box.lo) & (X <= box.up)
        if inside.all():
            return mu, X
        z = np.where(X < box.lo, box.lo, np.where(X > box.up, box.up, z))
        free = free & inside  # the free set shrinks every round


def ball_multiplier_search(solve, G, C, box, center, radius, tol, first=None):
    """Minimizer of the solve_box_qp objective without an l1 term over the
    box (center in it) and the ball ||X - center||_F <= radius < inf.  The
    ball dualized leaves the box problem of G + mu I and C + mu center, and
    solve(mu) returns _minimize of it.  first, (X, free, certificate) at mu
    = 0 with X outside the ball (callers check), gives the first working set
    (without it, center's bound entries; Ferreau, Bock & Diehl, 2008).  Each
    step takes the working set's root in the bracket, (0, _mu_hi) at first,
    and its point (_working_set_root): the answer if on the sphere with a
    dualized certified gap <= tol.  Else one box solve, at the root from the
    point, at 0 with no X yet, else at the midpoint, narrows the bracket and
    gives the next working set.  A zero radius gives center, a closed
    bracket the last X, BALL_MAX_ITERS steps SubsolverError."""
    X, free, certified = first or (None, None, None)
    if _ball_is_center(center, radius):
        return center.copy()
    lo, hi = 0.0, _mu_hi(G, C, center, radius)
    if X is None:
        free, z = (center != box.lo) & (center != box.up), center
    else:
        free = _free_mask(free, X.shape)
        z = np.where(free, center, X)
    for _ in range(BALL_MAX_ITERS):
        mu, P = _working_set_root(G, C, box, center, radius, free, z, lo, hi)
        if P is not None:
            nrm = _distance(P, center)
            if (abs(nrm - radius) <= BALL_RTOL * radius
                    and _certified_gap(G + mu * _eye(len(G)), C + mu * center, P, box) <= tol):
                X = P
                break
        predicted = X is not None and P is not None
        if not predicted:
            mu, P = (0.0, center) if X is None else (0.5 * (lo + hi), X)
        X, free, _, certified = solve(mu)(P, tol, predicted, certified)
        nrm = _distance(X, center)
        if abs(nrm - radius) <= BALL_RTOL * radius:
            break
        if nrm > radius:
            lo = mu
        else:
            hi = mu  # at mu = 0 the bracket closes: X(0) lies in the ball
        if hi - lo <= BALL_RTOL * hi:
            break
        free = _free_mask(free, X.shape)
        z = np.where(free, center, X)
    else:
        raise SubsolverError(f"ball search iteration cap exceeded: radius {radius}, "
                             f"bracket ({lo}, {hi}), last distance {nrm}")
    return X if nrm <= radius else center + (X - center) * (radius / nrm)


def _box_qp_ball(G, C, box, center, radius, tol, first=None):
    """ball_multiplier_search's minimizer, or the box solve's from center at
    radius inf.  At rank 2 with no first, the closed form at mu = 0 is one
    _minimize call, for one family or a stack (G (K, k, k); C, center (K,
    n, k)), and only a family whose point leaves the ball searches, from
    that point (first); other stacks search member by member."""
    if math.isinf(radius):
        return _minimize(G, C, box, center, tol)[0]
    if first is None and box.enumerable:
        X, free, _, certified = _minimize(G, C, box, center, tol)
        if G.ndim == 3:
            # each member's _distance, from one subtraction for the stack
            for j, u in enumerate((X - center).reshape(len(C), -1)):
                if not math.sqrt(u.dot(u)) <= radius:
                    free = _free_mask(free, C.shape)
                    X[j] = _box_qp_ball(G[j], C[j], box.member(j), center[j], radius, tol,
                                        (X[j], free[j], certified[j]))
            return X
        if _distance(X, center) <= radius:
            return X
        first = (X, free, certified)
    elif G.ndim == 3:
        return np.stack([_box_qp_ball(G[j], C[j], box.member(j), center[j], radius, tol)
                         for j in range(len(C))])

    def solve(mu):
        Gm, Cm = (G, C) if mu == 0.0 else (G + mu * _eye(len(G)), C + mu * center)
        return partial(_minimize, Gm, Cm, box)
    return ball_multiplier_search(solve, G, C, box, center, radius, tol, first)


# ---------------------------------------------------------------------------
# code solver


def solve_code_lasso(
    X: np.ndarray,
    W: np.ndarray,
    lam: float,
    code_set: BoxSet,
    tol: float = 1e-8,
    H0: np.ndarray | None = None,
):
    """Minimize ||X - W H||_F^2 + lam ||H||_1 over the code box (dim r), row
    i of H in the box's i-th interval in every column: every column is a row
    of one solve_box_qp family, G = W'W and c = W'x.  One sample X (q, d)
    against W (q, r) gives H (r, d), a stack X (K, q, d) against W (K, q, r)
    gives H (K, r, d), in one call.  H0 is an array of H's shape, nan where
    there is no start (None: nan everywhere; another shape raises
    ValueError), read as solve_box_qp reads X0: at every rank but 2 a nan
    entry starts at the clipped least-squares code W^+ X.  Returns (H, gap):
    the certified gap bounds H's suboptimality, <= tol unless rounding
    stalls the solver at the minimizer (a float, or one per stack member:
    see the README's Invariants).
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    q = X.shape[-2]
    r = W.shape[-1]
    if W.shape[-2] != q:
        raise ValueError("W rows must match X rows")
    if code_set.dim != r:
        raise ValueError(f"code box dim {code_set.dim} must be the rank {r}")
    H0 = _start_array(H0, X.shape[:-2] + (r, X.shape[-1]))
    Wt = W.swapaxes(-1, -2)
    H_T, gap = _solve(Wt @ W, (Wt @ X).swapaxes(-1, -2), _family_of(code_set, lam, (1, r)),
                      None if H0 is None else H0.swapaxes(-1, -2), tol)
    return H_T.swapaxes(-1, -2), gap


# ---------------------------------------------------------------------------
# block quadratic solver


def solve_block_quadratic(
    g: FactorQuad,
    box: BoxSet,
    radius: float,
    rows=None,
    tol: float = 1e-8,
):
    """Minimize the FactorQuad g over whole rows of its matrix variable:
    rows (m,) of it, or every row if None; the others stay at g.anchor.  The
    rows range over their slice of box (dim q*r, row by row) intersected
    with the ball of the given radius around their slice of the anchor (inf:
    no ball; nan or negative raises ValueError), one solve_box_qp family (G
    = A, C = B') with the ball dualized (_box_qp_ball).  Returns (W, value,
    new): W of the anchor's shape and the descent certificate, Python floats
    from FactorQuad.value_pair; a rise or a nan raises SubsolverError, an
    anchor outside the box GeometryError naming the member.  A stack,
    anchor (K, q, r), takes rows (m,) or (K, m): each member has its own
    ball of the shared radius and its own certificate, W is (K, q, r), and
    value and new are lists of K floats."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0 (0 and inf allowed), got {radius}")
    prev = g.anchor
    q, r = g.q, g.r
    if not box.contains(prev.reshape(prev.shape[:-2] + (q * r,))):
        if prev.ndim == 2:
            raise GeometryError("the anchor must lie in the box")
        j = next(j for j, P in enumerate(prev) if not box.contains(P.ravel()))
        raise GeometryError(f"the anchor of stack member {j} must lie in the box")
    fam = _family_of(box, 0.0, (q, r))
    C = g.B.swapaxes(-1, -2)
    if rows is None:
        W = _box_qp_ball(g.A, C, fam, prev, radius, tol)
    else:
        rows = np.asarray(rows, dtype=int)
        at = ((np.arange(len(prev))[:, None], rows) if rows.ndim == 2
              else (Ellipsis, rows, slice(None)))
        W = prev.copy()
        W[at] = _box_qp_ball(g.A, C[at], fam.rows(rows), prev[at], radius, tol)
    obj, new = g.value_pair(prev, W)
    if prev.ndim == 2:
        if not new <= obj + 1e-9 * (1.0 + abs(obj)):
            raise SubsolverError("block solve increased the objective")
        return W, obj, new
    for j, (n, o) in enumerate(zip(new, obj)):
        if not n <= o + 1e-9 * (1.0 + abs(o)):
            raise SubsolverError(f"block solve increased the objective of stack member {j}")
    return W, obj, new
