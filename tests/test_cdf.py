import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifreemax import (
    AffineNormalization,
    BivariateCDF,
    CDFError,
    InvalidCDFError,
    UnivariateCDF,
    affine_transform,
    bifree_max_convolve,
    ecdf_from_samples,
    free_max_convolve,
    marginals,
    max_stable_residual,
    merge_grids,
    nth_root,
    validate_bi,
    validate_uni,
)
from bifreemax import cdf as cdf_module
from bifreemax.cdf import EPS_CDF, MAX_LISTED, GridRows, require_valid_bi
from helpers import ecdf_brute_force, group_violations, random_bivariate_cdf


class TestUnivariateCDF:
    def test_values_of_another_length_rejected(self):
        with pytest.raises(CDFError, match="values must have the same length as breaks"):
            UnivariateCDF([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_that_are_not_finite_rejected(self, bad):
        with pytest.raises(CDFError, match="values must be finite"):
            UnivariateCDF([0.0, 1.0], [bad, 1.0])


class TestNanCoordinate:
    """A nan coordinate evaluates to nan, not to the value above the grid;
    +-inf reads as before: 0 below the grid, the last value above it."""

    def test_univariate(self):
        F = UnivariateCDF([0.0, 1.0], [0.6, 1.0])
        assert np.isnan(F.evaluate(np.nan))
        assert (F.evaluate(-np.inf), F.evaluate(np.inf)) == (0.0, 1.0)
        got = F.evaluate(np.array([np.nan, -np.inf, 0.5, np.inf, np.nan]))
        assert np.array_equal(got, [np.nan, 0.0, 0.6, 1.0, np.nan], equal_nan=True)

    def test_bivariate(self):
        F = BivariateCDF([0.0, 1.0], [0.0, 1.0], [[0.3, 0.6], [0.5, 1.0]])
        assert np.isnan(F.evaluate(np.nan, 0.5)) and np.isnan(F.evaluate(0.5, np.nan))
        assert (F.evaluate(-np.inf, 0.5), F.evaluate(np.inf, 0.5)) == (0.0, 0.5)
        xs, ys = [np.nan, -np.inf, 0.5, np.inf], [0.5, np.nan, np.inf, -np.inf]
        nan = np.nan
        expected = [[nan, nan, nan, nan],
                    [0.0, nan, 0.0, 0.0],
                    [0.3, nan, 0.6, 0.0],
                    [0.5, nan, 1.0, 0.0]]
        assert np.array_equal(F.evaluate_grid(xs, ys), expected, equal_nan=True)
        # no point of xs on the grid: every point is nan or below it
        assert np.array_equal(F.evaluate_grid([nan, -1.0], [0.5, nan]),
                              [[nan, nan], [0.0, nan]], equal_nan=True)

    def test_nan_rows_read_no_row(self):
        F = BivariateCDF([0.0, 1.0, 2.0], [0.0, 1.0], [[0.1, 0.2], [0.3, 0.6], [0.5, 1.0]])
        reads = []
        rows = GridRows(F.x_breaks, F.y_breaks, lambda r: reads.append(r) or F.cdf[r])
        got = rows.evaluate_grid([0.5, np.nan, 1.5], [1.0, np.nan])
        assert np.array_equal(got, [[0.2, np.nan], [np.nan, np.nan], [0.6, np.nan]],
                              equal_nan=True)
        assert reads == [slice(0, 2)]


class TestValidateUni:
    def test_two_atom_cdf_is_valid(self):
        F = UnivariateCDF([0.0, 1.0], [0.4, 1.0])
        assert validate_uni(F) == []

    def test_decreasing_values(self):
        F = UnivariateCDF([0.0, 1.0], [0.7, 0.5])
        violations = validate_uni(F)
        assert any("monotonicity" in v and "index 1" in v for v in violations)

    def test_total_mass(self):
        F = UnivariateCDF([0.0], [0.9])
        assert any("total-mass" in v for v in validate_uni(F))


class TestValidateBi:
    def test_valid_2x2(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        assert validate_bi(F) == []

    def test_rectangle_violation(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]])
        violations = validate_bi(F)
        assert any("rectangle" in v for v in violations)

    def test_frechet_upper_bound(self):
        # interior value above its own x-marginal
        F = BivariateCDF([0, 1], [0, 1], [[0.7, 0.6], [0.8, 1.0]])
        violations = validate_bi(F)
        assert any("Frechet upper-bound" in v or "monotonicity" in v
                   for v in violations)


class TestTolerance:
    """The library's eps, like the CLI's --tol, is a finite number >= 0: a nan
    eps would pass every grid and a negative one fail a clean grid."""

    UNI = UnivariateCDF([0.0, 1.0], [0.5, 1.0])
    BI = BivariateCDF([0, 1], [0, 1], [[0.25, 0.5], [0.5, 1.0]])   # exact in binary
    CALLS = {
        "validate_uni": lambda eps: validate_uni(TestTolerance.UNI, eps),
        "validate_bi": lambda eps: validate_bi(TestTolerance.BI, eps),
        "require_valid_bi": lambda eps: require_valid_bi(TestTolerance.BI, eps),
        "bifree_max_convolve": lambda eps: bifree_max_convolve(TestTolerance.BI,
                                                               TestTolerance.BI, eps),
        "nth_root": lambda eps: nth_root(TestTolerance.BI, 2, eps),
        "free_max_convolve": lambda eps: free_max_convolve(TestTolerance.UNI,
                                                           TestTolerance.UNI, eps),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("eps", [np.nan, -0.1, -1e-300, np.inf])
    def test_rejects_a_bad_tolerance(self, call, eps):
        with pytest.raises(CDFError, match=re.escape(f"eps must be a finite number >= 0, "
                                                     f"got {eps!r}")) as got:
            self.CALLS[call](eps)
        assert not isinstance(got.value, InvalidCDFError)

    @pytest.mark.parametrize("eps", [0.0, -0.0, 1e-300])
    def test_accepts_zero_and_tiny_tolerances(self, eps):
        assert validate_uni(self.UNI, eps) == []
        assert validate_bi(self.BI, eps) == []
        assert require_valid_bi(self.BI, eps) is self.BI
        bifree_max_convolve(self.BI, self.BI, eps)
        free_max_convolve(self.UNI, self.UNI, eps)


def _assert_bounded(violations, expected):
    """Each kind in ``expected`` ({kind: (count, worst)}) is listed in full if
    it has at most MAX_LISTED violations, else as MAX_LISTED locations and
    one summary line with the exact rest and the worst amount."""
    groups = group_violations(violations)
    assert set(groups) == set(expected)
    for kind, (count, worst) in expected.items():
        locations, summary = groups[kind]
        assert len(locations) == min(count, MAX_LISTED), kind
        if count > MAX_LISTED:
            assert summary == (count - MAX_LISTED, worst), kind
        else:
            assert summary is None, kind


class TestBoundedReports:
    def test_bivariate_kinds_counts_and_worst(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(-0.5, 1.5, (40, 30))
        eps = EPS_CDF
        m1, m2 = c[:, -1][:, None], c[-1, :][None, :]
        dx, dy = np.diff(c, axis=0), np.diff(c, axis=1)
        cell = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        upper = (c > m1 + eps) | (c > m2 + eps)
        lower = c < m1 + m2 - 1.0 - eps
        expected = {
            "out-of-[0,1]": (np.count_nonzero((c < -eps) | (c > 1 + eps)),
                             max(np.max(c) - 1.0, -np.min(c))),
            "monotonicity along x": (np.count_nonzero(dx < -eps), -np.min(dx)),
            "monotonicity along y": (np.count_nonzero(dy < -eps), -np.min(dy)),
            "rectangle inequality": (np.count_nonzero(cell < -eps), -np.min(cell)),
            "Frechet upper-bound": (np.count_nonzero(upper),
                                    np.max(c - np.minimum(m1, m2))),
            "Frechet lower-bound": (np.count_nonzero(lower), np.max(m1 + m2 - 1.0 - c)),
        }
        if abs(c[-1, -1] - 1.0) > eps:
            expected["total-mass"] = (1, None)
        assert all(n > MAX_LISTED for kind, (n, _) in expected.items()
                   if kind != "total-mass")
        violations = validate_bi(BivariateCDF(np.arange(40.0), np.arange(30.0), c))
        _assert_bounded(violations, expected)
        # the listed locations are the first ones in row-major order
        first = np.argwhere(cell < -eps)[:MAX_LISTED]
        listed = group_violations(violations)["rectangle inequality"][0]
        assert [line.split(":")[0] for line in listed] == [
            f"rectangle inequality violation at cell ({i},{j})" for i, j in first]

    def test_univariate_kinds_counts_and_worst(self):
        rng = np.random.default_rng(13)
        v = rng.uniform(-0.5, 1.5, 200)
        eps = EPS_CDF
        d = np.diff(v)
        expected = {
            "out-of-[0,1]": (np.count_nonzero((v < -eps) | (v > 1 + eps)),
                             max(np.max(v) - 1.0, -np.min(v))),
            "monotonicity": (np.count_nonzero(d < -eps), -np.min(d)),
            "total-mass": (1, None),
        }
        violations = validate_uni(UnivariateCDF(np.arange(200.0), v))
        _assert_bounded(violations, expected)
        first = np.flatnonzero(d < -eps)[:MAX_LISTED] + 1
        listed = group_violations(violations)["monotonicity"][0]
        assert [line.split(":")[0] for line in listed] == [
            f"monotonicity violation at index {i}" for i in first]

    def test_worst_is_that_of_a_violation(self, monkeypatch):
        # 1 + eps rounds to a value more than eps above 1: it is listed, and
        # its amount is the worst, whatever the block size
        eps = 1e-9
        above, below = 1.0 + eps, np.nextafter(-eps, -1.0)
        assert above - 1.0 > -below > eps
        v = np.array([above] + [below] * 11 + [1.0])
        summary = f"... and 2 more out-of-[0,1] violations, worst {above - 1.0!r}"
        for cells in (1, 2 ** 30):
            monkeypatch.setattr(cdf_module, "BLOCK_CELLS", cells)
            uni = validate_uni(UnivariateCDF(np.arange(13.0), v), eps)
            assert f"value out of [0,1] at index 0: {above!r}" in uni and summary in uni
            bi = validate_bi(BivariateCDF(np.arange(13.0), [0.0], v[:, None]), eps)
            assert f"value out of [0,1] at (0,0): {above!r}" in bi and summary in bi

    def test_within_eps_is_exact(self):
        """A value at bound +- eps +- k ulp, k = 0, 1, 2, is listed iff it is
        more than eps past its bound in exact arithmetic, for every kind."""
        rng = np.random.default_rng(16)

        def near(bound, eps, sign, k):
            v = bound + sign * eps
            for _ in range(k):
                v = np.nextafter(v, rng.choice([-np.inf, np.inf]))
            return float(v)

        def past(lo, v, hi, eps):   # max(lo - v, v - hi) > eps, exactly
            return ((lo > -np.inf and Fraction(lo) - Fraction(v) > Fraction(eps))
                    or (hi < np.inf and Fraction(v) - Fraction(hi) > Fraction(eps)))

        # (kind, start of its line, values or grid of v, exact lo and hi of v)
        def cases(v, a, p, r, q, t):
            yield "uni", "value out of [0,1]", [v, 1.0], 0.0, 1.0
            yield "uni", "monotonicity", [a, v, max(v, 1.0)], a, np.inf
            yield "uni", "total-mass", [v], 1.0, 1.0
            yield "bi", "value out of [0,1]", [[v, 0.5], [0.5, 1.0]], 0.0, 1.0
            yield "bi", "monotonicity violation along x", [[a, 1.0], [v, 1.0]], a, np.inf
            yield "bi", "monotonicity violation along y", [[a, v], [1.0, 1.0]], a, np.inf
            yield "bi", "rectangle", [[0.0, 0.0], [a, v]], a, np.inf
            yield "bi", "Frechet upper", [[v, p], [r, 1.0]], -np.inf, min(p, r)
            # q + t, 1 - q and their sum less 1 are exact: q and t are multiples of 2^-52
            yield "bi", "Frechet lower", [[v, q + t], [1 - q, 1.0]], t, np.inf
            yield "bi", "total-mass", [[0.0, 0.0], [0.0, v]], 1.0, 1.0

        def dyadic(eps, top):   # k 2^-52 below top, or of the size of eps and either sign
            if rng.random() < 0.5:
                return float(rng.integers(1, top * 2 ** 52) * 2.0 ** -52)
            return float(round(eps * rng.uniform(-2, 2) * 2.0 ** 52) * 2.0 ** -52)

        listed = {True: 0, False: 0}
        for _ in range(40):
            eps = float(rng.choice([EPS_CDF, rng.uniform(1e-12, 1e-6)]))
            a = float(rng.uniform(0.25, 0.75))
            p, r, t = dyadic(eps, 1), dyadic(eps, 1), dyadic(eps, 0.25)
            q = float(rng.integers(2 ** 50, 2 ** 51) * 2.0 ** -52)
            for kind, start, _, lo, hi in cases(0.5, a, p, r, q, t):
                for bound, sign, k in itertools.product({lo, hi} - {-np.inf, np.inf},
                                                        (-1, 1), range(3)):
                    v = near(bound, eps, sign, k)
                    values = next(c for c in cases(v, a, p, r, q, t)
                                  if c[:2] == (kind, start))[2]
                    if kind == "uni":
                        report = validate_uni(UnivariateCDF(np.arange(3.0)[:len(values)],
                                                            values), eps)
                    else:
                        report = validate_bi(BivariateCDF([0.0, 1.0], [0.0, 1.0], values), eps)
                    got = any(line.startswith(start) for line in report)
                    assert got == past(lo, v, hi, eps), (kind, start, values, eps)
                    listed[got] += 1
        assert min(listed.values()) > 400

    def test_total_mass_tie_is_settled_exactly(self):
        """A total mass whose distance from 1 rounds to eps but exceeds it
        exactly is listed, like a tie of any other kind."""
        eps, m = 0.75, 0.25 - 2.0 ** -55
        assert 1.0 - m == eps and Fraction(1) - Fraction(m) == Fraction(eps) + Fraction(2) ** -55
        assert validate_bi(BivariateCDF([0.0], [0.0], [[m]]), eps) == [
            f"total-mass violation: F(last,last) = {m!r} != 1"]
        assert validate_uni(UnivariateCDF([0.0], [m]), eps) == [
            f"total-mass violation: F(last break) = {m!r} != 1"]

    def test_ten_listed_in_full_eleven_summed_up(self):
        # row 2 raised above 1 in its first k columns
        def report(k):
            c = np.full((12, 12), 0.5)
            c[-1, -1] = 1.0
            c[2, :k] = 1.5
            return validate_bi(BivariateCDF(np.arange(12.0), np.arange(12.0), c))

        def first(line, k):
            return [line.format(j) for j in range(k)]

        assert report(10) == (
            first("value out of [0,1] at (2,{}): 1.5", 10)
            + first("monotonicity violation along x at (3,{})", 10)
            + ["monotonicity violation along y at (2,10)",
               "rectangle inequality violation at cell (1,9): mass -1.0"]
            + first("Frechet upper-bound violation at (2,{})", 10))
        assert report(11) == (
            first("value out of [0,1] at (2,{}): 1.5", 10)
            + ["... and 1 more out-of-[0,1] violations, worst 0.5"]
            + first("monotonicity violation along x at (3,{})", 10)
            + ["... and 1 more monotonicity along x violations, worst 1.0",
               "monotonicity violation along y at (2,11)",
               "rectangle inequality violation at cell (1,10): mass -1.0"]
            + first("Frechet upper-bound violation at (2,{})", 10)
            + ["... and 1 more Frechet upper-bound violations, worst 1.0"])

    @staticmethod
    def _checkerboard_error(n):
        # mass 1/2 at each end of the diagonal, then every other interior
        # value raised to 1.25: the same first rows at every size
        c = np.full((n, n), 0.5)
        c[-1, -1] = 1.0
        i, j = np.indices((n - 1, n - 1))
        c[:-1, :-1][(i + j) % 2 == 1] += 0.75
        with pytest.raises(InvalidCDFError) as info:
            require_valid_bi(BivariateCDF(np.arange(n), np.arange(n), c))
        return str(info.value)

    def test_message_size_does_not_grow_with_the_grid(self):
        small, large = self._checkerboard_error(64), self._checkerboard_error(256)
        summaries = small.count("... and ")
        assert summaries == large.count("... and ") >= 3
        # only the counts in the summary lines differ, by a digit at most
        strip = re.compile(r"and \d+ more")
        assert strip.sub("", small) == strip.sub("", large)
        assert 0 <= len(large) - len(small) <= summaries


class TestMarginals:
    def test_read_off(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        F1, F2 = marginals(F)
        assert F1.values.tolist() == [0.6, 1.0]
        assert F2.values.tolist() == [0.5, 1.0]

    def test_product_cdf(self):
        u = np.array([0.2, 0.7, 1.0])
        v = np.array([0.5, 1.0])
        F = BivariateCDF([0, 1, 2], [0, 1], u[:, None] * v[None, :])
        F1, F2 = marginals(F)
        assert np.array_equal(F1.values, u)
        assert np.array_equal(F2.values, v)

    def test_point_mass(self):
        F = BivariateCDF([3.0], [4.0], [[1.0]])
        F1, F2 = marginals(F)
        assert F1.breaks.tolist() == [3.0] and F1.values.tolist() == [1.0]
        assert F2.breaks.tolist() == [4.0] and F2.values.tolist() == [1.0]

    def test_invalid_rejected(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]])
        with pytest.raises(CDFError):
            marginals(F)


class TestMergeGrids:
    def test_right_continuity_fill(self):
        F = BivariateCDF([0, 2], [0, 2], [[0.2, 0.5], [0.4, 1.0]])
        G = BivariateCDF([1, 2], [1, 2], [[0.3, 0.6], [0.5, 1.0]])
        Fm, Gm = merge_grids(F, G)
        assert Fm.x_breaks.tolist() == [0, 1, 2]
        # below G's first break the filled value is 0
        assert Gm.cdf[0, 0] == 0.0 and Gm.cdf[0, 2] == 0.0
        # original breakpoints keep their values
        assert Gm.evaluate(1, 1) == 0.3

    def test_identical_grids_idempotent(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        Fm, Fm2 = merge_grids(F, F)
        assert np.array_equal(Fm.cdf, F.cdf)
        assert np.array_equal(Fm2.cdf, F.cdf)

    def test_merge_commutes_with_marginals(self):
        # oracle: evaluate both orders on random discrete CDFs, compare exactly
        rng = np.random.default_rng(7)
        for _ in range(25):
            F = random_bivariate_cdf(rng)
            G = random_bivariate_cdf(rng)
            Fm, Gm = merge_grids(F, G)
            m_then = marginals(Fm)[0]
            m_first = marginals(F)[0]
            expected = m_first.evaluate(Fm.x_breaks)
            assert np.array_equal(m_then.values, expected)

    def test_merge_preserves_evaluation(self):
        rng = np.random.default_rng(8)
        F = random_bivariate_cdf(rng)
        G = random_bivariate_cdf(rng)
        Fm, _ = merge_grids(F, G)
        pts = rng.uniform(-5, 5, size=(40, 2))
        for s, t in pts:
            assert Fm.evaluate(s, t) == F.evaluate(s, t)

    def test_outputs_valid_exactly(self):
        # dyadic masses keep every invariant exact through the arithmetic
        rng = np.random.default_rng(9)

        def dyadic_cdf(offset):
            masses = rng.integers(1, 6, (3, 3)).astype(float)
            masses[-1, -1] += 64.0 - masses.sum()
            cdf = np.cumsum(np.cumsum(masses, axis=0), axis=1) / 64.0
            return BivariateCDF(offset + np.arange(3.0),
                                offset + np.arange(3.0), cdf)

        F = dyadic_cdf(0.0)
        G = dyadic_cdf(0.5)
        for H in merge_grids(F, G):
            assert validate_bi(H, eps=0.0) == []


class TestAffineTransform:
    def test_identity(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        H = affine_transform(F, AffineNormalization.identity())
        assert np.array_equal(H.cdf, F.cdf)
        assert np.array_equal(H.x_breaks, F.x_breaks)

    def test_scale_moves_support(self):
        F = BivariateCDF([4.0], [4.0], [[1.0]])
        H = affine_transform(F, AffineNormalization(2.0, 0.0, 1.0, 0.0))
        assert H.x_breaks.tolist() == [2.0]
        assert H.y_breaks.tolist() == [4.0]

    def test_group_inverse(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        n = AffineNormalization(2.0, 3.0, 0.5, -1.0)
        H = affine_transform(affine_transform(F, n), n.inverse())
        assert np.allclose(H.x_breaks, F.x_breaks)
        assert np.allclose(H.y_breaks, F.y_breaks)
        assert np.array_equal(H.cdf, F.cdf)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(CDFError):
            AffineNormalization(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(CDFError):
            AffineNormalization(1.0, 0.0, -2.0, 0.0)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, k, bad):
        params = [1.0, 0.0, 1.0, 0.0]
        params[k] = bad
        with pytest.raises(CDFError, match="a, b, c and d must be finite"):
            AffineNormalization(*params)

    # a scale so small that the pulled-back breaks overflow, and shifts so
    # large that they collapse
    BREAKING = [(1e-320, 0.0, 1.0, 0.0), (1.0, 0.0, 5e-324, 0.0),
                (2.0, 1e20, 1.0, 0.0), (1.0, 0.0, 1.0, -1e308)]

    @pytest.mark.parametrize("params", BREAKING)
    def test_normalization_that_breaks_the_grid(self, params):
        F = BivariateCDF([0.5, 1.0, 2.0], [0.25, 1.0], [[0.2, 0.3], [0.4, 0.6], [0.5, 1.0]])
        norm = AffineNormalization(*params)
        message = re.escape(f"the normalization (a, b, c, d) = {params!r} pulls the grid back")
        for call in (lambda: affine_transform(F, norm), lambda: max_stable_residual(F, 2, norm)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CDFError, match=message):
                    call()


class TestEcdf:
    def test_single_point(self):
        F = ecdf_from_samples([(0.0, 0.0)])
        assert F.cdf.tolist() == [[1.0]]

    def test_two_diagonal_atoms(self):
        F = ecdf_from_samples([(0, 0), (1, 1)])
        assert F.cdf.tolist() == [[0.5, 0.5], [0.5, 1.0]]

    def test_product_grid_matches_product_formula(self):
        # brute-force oracle on the full 2x2 product sample set {0,1}^2
        F = ecdf_from_samples([(0, 0), (0, 1), (1, 0), (1, 1)])
        F1, F2 = marginals(F)
        prod = F1.values[:, None] * F2.values[None, :]
        assert np.max(np.abs(F.cdf - prod)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(CDFError):
            ecdf_from_samples([])

    @pytest.mark.parametrize("points", [[(0.0, 1.0, 2.0)], [0.0, 1.0], [[[0.0, 1.0]]]],
                             ids=["triples", "flat", "nested"])
    def test_samples_that_are_not_pairs_rejected(self, points):
        with pytest.raises(CDFError, match=r"samples must be \(x, y\) pairs"):
            ecdf_from_samples(points)

    def test_duplicates_collapse(self):
        F = ecdf_from_samples([(0, 0), (0, 0), (1, 1), (1, 1)])
        assert F.x_breaks.tolist() == [0.0, 1.0]
        assert F.cdf.tolist() == [[0.5, 0.5], [0.5, 1.0]]

    def test_output_valid_with_zero_tolerance(self):
        F = ecdf_from_samples([(0, 0), (1, 2), (1, 0), (3, 1)])
        assert validate_bi(F, eps=0.0) == []

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mass_multiples_of_1_over_n(self, pts):
        F = ecdf_from_samples(pts)
        n = len(pts)
        assert np.allclose(F.cdf * n, np.round(F.cdf * n), atol=1e-12)
        assert F.cdf[-1, -1] == 1.0


    def test_equals_brute_force_reference(self):
        # heavy ties, duplicate points and distinct points, N <= 200
        rng = np.random.default_rng(21)
        for k in range(60):
            n = int(rng.integers(1, 201))
            if k % 3 == 0:
                pts = rng.integers(-3, 4, (n, 2)).astype(float)
            elif k % 3 == 1:
                base = rng.normal(size=(max(1, n // 4), 2))
                pts = base[rng.integers(0, base.shape[0], n)]
            else:
                pts = rng.normal(size=(n, 2))
            F, R = ecdf_from_samples(pts), ecdf_brute_force(pts)
            assert np.array_equal(F.x_breaks, R.x_breaks)
            assert np.array_equal(F.y_breaks, R.y_breaks)
            assert F.cdf.tobytes() == R.cdf.tobytes()

    def test_memory_is_linear_in_the_output(self):
        # 3000 distinct points: the cubic reference would need 27 GB here
        pts = np.random.default_rng(22).normal(size=(3000, 2))
        tracemalloc.start()
        try:
            F = ecdf_from_samples(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.cdf.shape == (3000, 3000)
        assert peak <= 4 * F.cdf.nbytes

    def test_counts_become_the_cdf_in_place(self):
        # the counts and the CDF are one array, not an int64 table and its quotient;
        # the first call in a process also imports what numpy loads lazily
        pts = np.random.default_rng(23).normal(size=(800, 2))
        ecdf_from_samples(pts[:2])
        tracemalloc.start()
        try:
            F = ecdf_from_samples(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.cdf.shape == (800, 800)
        assert peak <= F.cdf.nbytes + 2 ** 20


class TestCellBudget:
    def test_ecdf_over_budget(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 15)
        with pytest.raises(CDFError, match=r"4x4 grid: 16 cells, 128 bytes"):
            ecdf_from_samples([(k, k) for k in range(4)])
        assert ecdf_from_samples([(0, 1), (1, 0), (2, 2)]).cdf.size == 9

    def test_merge_grids_over_budget(self, monkeypatch):
        F = BivariateCDF([0, 1, 2], [0, 1, 2], np.outer([0.2, 0.5, 1], [0.3, 0.6, 1]))
        G = BivariateCDF([0.5, 1.5], [0.5, 1.5], np.outer([0.4, 1], [0.5, 1]))
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 24)
        with pytest.raises(CDFError, match=r"merge_grids would need a 5x5 grid: 25 cells"):
            merge_grids(F, G)
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 25)
        assert merge_grids(F, G)[0].cdf.shape == (5, 5)

    def test_max_stable_residual_over_budget(self, monkeypatch):
        F = BivariateCDF([0, 1, 2], [0, 1, 2], np.outer([0.2, 0.5, 1], [0.3, 0.6, 1]))
        norm = AffineNormalization(2.0, 0.25, 2.0, 0.25)
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 35)
        with pytest.raises(CDFError, match=r"max_stable_residual would need a 6x6 grid"):
            max_stable_residual(F, 2, norm)
        monkeypatch.setattr(cdf_module, "MAX_CELLS", 36)
        assert max_stable_residual(F, 2, norm) > 0.0


class TestRandomCdfsAreValid:
    def test_generator_produces_valid_cdfs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            F = random_bivariate_cdf(rng)
            assert validate_bi(F) == []
