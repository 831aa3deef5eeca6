"""Analytic-transform oracle for pairs of commuting projections.

For a projection with trace p the Cauchy transform is rational and its
inverse K solves a quadratic; for a commuting pair of projections the
two-variable Cauchy transform and the reduced two-variable R-transform
are rational in the single-variable K's.  Composing these along the
positive real axis and letting the transform variables grow extracts the
mass of the joint top atom of a sum of two bi-free pairs, i.e. the mixed
trace of the meet projections ("wedge moment").  The same number also has
a closed form directly in the six traces (p, q, r, p', q', r'), giving
an independent route against which the grid convolution can be checked.

All limit extraction happens on the positive real axis, where the correct
quadratic branch takes values in (1, inf] and is fixed by its behaviour
at 0 and infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdf import BivariateCDF
from .extremal import projection_meet_trace

#: Tolerance for limit stability checks.
EPS_LIM = 1e-7
#: Geometric evaluation ladder for the large-argument limit.
LIMIT_LADDER = tuple(10.0 ** k for k in range(2, 8))

#: Laws with a joint trace within this distance of a Frechet bound are
#: flagged as near-degenerate (accepted, but limit paths slow down there).
NEAR_DEGENERATE_MARGIN = 1e-12


class InvalidLawError(ValueError):
    """Raised when a (p, q, r) triple violates the Frechet bounds."""


class LimitConvergenceError(RuntimeError):
    """Raised when a limit ladder fails its stability criterion."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(f"{message}; evaluation trace: {trace}")
        self.trace = trace


@dataclass(frozen=True)
class ProjectionPairLaw:
    """Joint law of a commuting projection pair: traces of P, Q and PQ."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0.0 <= v <= 1.0:
                raise InvalidLawError(f"{name} must lie in [0, 1], got {v!r}")
        lo = max(0.0, self.p + self.q - 1.0)
        hi = min(self.p, self.q)
        # boundary laws computed in floating point land a few ulp outside;
        # accept them within the near-degenerate margin
        if not self.r >= lo - NEAR_DEGENERATE_MARGIN:   # nan fails this too
            raise InvalidLawError(
                f"r = {self.r!r} below Frechet lower bound max(0, p+q-1) = {lo!r}")
        if self.r > hi + NEAR_DEGENERATE_MARGIN:
            raise InvalidLawError(
                f"r = {self.r!r} above Frechet upper bound min(p, q) = {hi!r}")

    @property
    def delta(self) -> float:
        """Covariance-like defect r - p*q; zero iff P and Q are independent."""
        return self.r - self.p * self.q

    @property
    def near_degenerate(self) -> bool:
        lo = max(0.0, self.p + self.q - 1.0)
        hi = min(self.p, self.q)
        return (self.r - lo <= NEAR_DEGENERATE_MARGIN
                or hi - self.r <= NEAR_DEGENERATE_MARGIN)


# ---------------------------------------------------------------------------
# Single-variable transforms
# ---------------------------------------------------------------------------

def cauchy_projection(z, p: float):
    """Cauchy transform of a trace-p projection: (z + p - 1) / (z(z-1))."""
    if z == 0 or z == 1:
        raise ValueError(f"z = {z!r} is a pole of the projection Cauchy transform")
    return (z + p - 1.0) / (z * (z - 1.0))


def k_projection_excess(z: float, p: float) -> float:
    """K(z) - 1 on the positive real axis, for p > 0, evaluated stably.

    K - 1 solves z*e**2 + (z - 1)*e - p = 0; the admissible root is
    positive on (0, inf), behaves like 1/z near 0 and like p/z at infinity.
    The two algebraically equivalent forms below each avoid cancellation
    on their half of the axis.
    """
    if not z > 0:
        raise ValueError(f"branch undefined for z = {z!r} (need z > 0)")
    if not p > 0:
        raise ValueError(f"k_projection_excess requires p > 0, got {p!r}")
    s = math.sqrt((z - 1.0) ** 2 + 4.0 * z * p)
    if z <= 1.0:
        return ((1.0 - z) + s) / (2.0 * z)
    return 2.0 * p / ((z - 1.0) + s)


def k_projection(z, p: float):
    """Functional inverse of the projection Cauchy transform.

    On the positive real axis this is the branch with K(z) -> inf as
    z -> 0+ and K(z) in (1, inf) for p > 0.  For p = 0 the transform
    degenerates to 1/z and so does its inverse.
    """
    if z == 0:
        raise ValueError("K has a pole at z = 0 (point at infinity)")
    if p == 0.0:
        return 1.0 / z
    return 1.0 + k_projection_excess(float(z), p)


# ---------------------------------------------------------------------------
# Two-variable transforms
# ---------------------------------------------------------------------------

def cauchy_pair(z, w, law: ProjectionPairLaw):
    """Two-variable Cauchy transform of a commuting projection pair."""
    if z == 0 or z == 1 or w == 0 or w == 1:
        raise ValueError("(z, w) hits a pole of the pair Cauchy transform")
    p, q = law.p, law.q
    return (((z + p - 1.0) * (w + q - 1.0) + law.delta)
            / (z * w * (z - 1.0) * (w - 1.0)))


def reduced_r_transform(z, w, law: ProjectionPairLaw):
    """Reduced two-variable R-transform of the pair, in closed form.

    Equals 1 - z*w / G(K(z), K(w)); identically 0 for independent pairs
    where K is defined.
    """
    return _reduced_r(law, k_projection(z, law.p) - 1.0, k_projection(w, law.q) - 1.0)


def _reduced_r(law: ProjectionPairLaw, ep, eq):
    """The reduced R-transform from the excesses K(z) - 1 and K(w) - 1."""
    if law.delta == 0.0:
        return 0.0
    return 1.0 / (1.0 + (law.p + ep) * (law.q + eq) / law.delta)


def wedge_moment_expression(z: float, w: float,
                            law: ProjectionPairLaw,
                            law2: ProjectionPairLaw) -> float:
    """Analytic expression whose limit as z, w -> inf is the wedge moment.

    Built from the single-variable K's of both laws and the reduced
    R-transform denominators; requires all four marginal traces positive
    (that is where the expression continues to the whole positive axis).
    """
    if not (z > 0 and w > 0):
        raise ValueError("z and w must be positive")
    if not (law.p > 0 and law.q > 0 and law2.p > 0 and law2.q > 0):
        raise ValueError("all marginal traces must be positive")
    ep = k_projection_excess(z, law.p)
    ep2 = k_projection_excess(z, law2.p)
    eq = k_projection_excess(w, law.q)
    eq2 = k_projection_excess(w, law2.q)
    # (K_P + K_P' - 1/z - 2) * z and the analogue in w, cancellation-free.
    A = z * ep + z * ep2 - 1.0
    B = w * eq + w * eq2 - 1.0
    return A * B / (1.0 - _reduced_r(law, ep, eq) - _reduced_r(law2, ep2, eq2))


def wedge_moment_limit(law: ProjectionPairLaw, law2: ProjectionPairLaw) -> float:
    """Wedge moment via the large-argument limit of the transform pipeline.

    Evaluates the expression along the geometric ladder z = w = 10^k,
    k = 2..7, extrapolates away the leading 1/z error term, and requires
    the last two extrapolants to agree within EPS_LIM.
    """
    if (projection_meet_trace(law.p, law2.p) <= 0.0 or law.r == 0.0 or law2.r == 0.0
            or projection_meet_trace(law.q, law2.q) <= 0.0):
        return 0.0
    evals = [wedge_moment_expression(t, t, law, law2) for t in LIMIT_LADDER]
    # Leading error is c/t on a ratio-10 ladder: eliminate it pairwise.
    extrap = [(10.0 * b - a) / 9.0 for a, b in zip(evals, evals[1:])]
    if abs(extrap[-1] - extrap[-2]) > EPS_LIM:
        raise LimitConvergenceError(
            f"wedge moment ladder not stable within {EPS_LIM}", evals)
    return extrap[-1]


def wedge_moment_closed_form(law: ProjectionPairLaw,
                             law2: ProjectionPairLaw) -> float:
    """Wedge moment in closed form: meet-trace product over the ratio sum.

    Returns (p+p'-1)_+ (q+q'-1)_+ / (pq/r + p'q'/r' - 1), with the meet traces
    of ``projection_meet_trace``, and 0 whenever a meet or joint trace vanishes.
    """
    a = projection_meet_trace(law.p, law2.p)
    b = projection_meet_trace(law.q, law2.q)
    if a <= 0.0 or b <= 0.0 or law.r == 0.0 or law2.r == 0.0:
        return 0.0
    return a * b / (law.p * law.q / law.r + law2.p * law2.q / law2.r - 1.0)


# ---------------------------------------------------------------------------
# Atom-mass extraction from a bivariate Cauchy evaluator
# ---------------------------------------------------------------------------

def atom_mass_limit(G, top: tuple[float, float]) -> float:
    """Mass of the atom of a plane measure at the top of its support.

    ``G(z, w)`` must evaluate the Cauchy transform of a probability measure
    supported in (-inf, top[0]] x (-inf, top[1]] at real points above top.
    Evaluates (z - top1)(w - top2) G(z, w) along z = top1 + 2^-n,
    n = 1..30 (same in w), and requires the last two values to
    agree within EPS_LIM.
    """
    tx, ty = top
    vals = []
    for n in range(1, 31):
        h = 2.0 ** (-n)
        g = G(tx + h, ty + h)
        vals.append(float(np.real(h * h * g)))
    if abs(vals[-1] - vals[-2]) > EPS_LIM:
        raise LimitConvergenceError(
            f"atom-mass ladder not stable within {EPS_LIM}", vals)
    return vals[-1]


def cauchy_from_atoms(atoms):
    """Cauchy-transform evaluator of a discrete plane measure.

    ``atoms`` is an iterable of (x, y, mass) triples.
    """
    pts = [(float(x), float(y), float(m)) for x, y, m in atoms]

    def G(z, w):
        return sum(m / ((z - x) * (w - y)) for x, y, m in pts)

    return G


def _invert_k_sum(Z: float, p: float, p2: float) -> float:
    """The z > 0 with K_P(z) + K_P'(z) - 1/z = Z > 2: the positive root of the
    quadratic a z^2 + 2b z - c = 0 of ``bifree_sum_cauchy``, where a, c > 0.
    Each coefficient is formed from non-negative terms, and the root is
    taken in the form that does not cancel.
    """
    lo, hi = min(p, p2), max(p, p2)
    a = Z * (Z - 2.0)
    b = (1.0 - hi) - lo
    c = ((Z - 2.0) + (1.0 - hi) + lo) * ((Z - 1.0) + (hi - lo)) / (Z - 1.0) ** 2
    s = math.sqrt(b * b + a * c)
    return c / (b + s) if b >= 0.0 else (s - b) / a


def bifree_sum_cauchy(law: ProjectionPairLaw, law2: ProjectionPairLaw):
    """Cauchy-transform evaluator of the sum of two bi-free projection pairs.

    For arguments (Z, W) with Z > 2, W > 2 the single-variable K of each
    coordinate sum is inverted in closed form.  K_P + K_P' - 1/z equals
    1 + (S_p + S_p')/(2z) with S_p = sqrt((z - 1)^2 + 4zp), and squaring
    K_P + K_P' - 1/z = Z twice leaves one positive root z of

        (Z^2 - 2Z) z^2 + 2(1 - p - p') z - (1 - (p - p')^2/(Z - 1)^2) = 0.

    The two-variable transform is recovered from the additivity of the
    reduced R-transform:

        G(Z, W) = z * w / (1 - Rt(z, w) - Rt'(z, w)).

    This is the third, fully independent route to the wedge moment.
    """
    if not (law.p > 0 and law.q > 0 and law2.p > 0 and law2.q > 0):
        raise ValueError("all marginal traces must be positive")

    def G(Z, W):
        if not (Z > 2.0 and W > 2.0):
            raise ValueError("evaluator is defined for Z > 2, W > 2")
        z = _invert_k_sum(float(Z), law.p, law2.p)
        w = _invert_k_sum(float(W), law.q, law2.q)
        rt = reduced_r_transform(z, w, law)
        rt2 = reduced_r_transform(z, w, law2)
        return z * w / (1.0 - rt - rt2)

    return G


# ---------------------------------------------------------------------------
# Bridge to the grid-convolution route
# ---------------------------------------------------------------------------

def projection_indicator_cdf(law: ProjectionPairLaw) -> BivariateCDF:
    """Bivariate CDF of (1-P, 1-Q) on the grid {0, 1}^2.

    The value on the open unit square is r, the marginals at 0 are p and q;
    the bi-free max-convolution of two such CDFs carries the wedge moment
    of the underlying pairs in its bottom-left cell.
    """
    return BivariateCDF(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        np.array([[law.r, law.p], [law.q, 1.0]]))
