from fractions import Fraction

import numpy as np
import pytest

from bifreemax import (
    AffineNormalization,
    BivariateCDF,
    InvalidCDFError,
    ProjectionPairLaw,
    bifree_max_convolve,
    free_max_convolve,
    marginals,
    max_stable_residual,
    merge_grids,
    nfold,
    nth_root,
    projection_indicator_cdf,
    psi_ratio,
    validate_bi,
    wedge_moment_closed_form,
)
from helpers import (
    convolve_reference,
    dyadic_max_stable_cdf,
    nth_root_reference,
    psi_reference,
    random_breaks,
    random_bivariate_cdf,
    sparse_bivariate_cdf,
)


def product_cdf(xb, u, yb, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return BivariateCDF(xb, yb, u[:, None] * v[None, :])


class TestPsiRatio:
    def test_product_cdf_gives_one(self):
        F = product_cdf([0, 1], [0.4, 1.0], [0, 1], [0.5, 1.0])
        psi = psi_ratio(F).values
        assert np.all(psi[np.isfinite(psi)] == 1.0)

    def test_infinity_sentinel(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.0, 0.4], [0.5, 1.0]])
        psi = psi_ratio(F).values
        assert np.isinf(psi[0, 0])

    def test_undefined_sentinel(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.0, 0.0], [0.0, 1.0]])
        psi = psi_ratio(F).values
        assert np.isnan(psi[0, 0])

    def test_negative_cell_vanishes(self):
        # cells within eps below 0: +inf where both marginals are
        # positive, nan where they are not, like cells at 0
        F = BivariateCDF([0, 1], [0, 1], [[-1e-10, 0.4], [0.5, 1.0]])
        assert np.isposinf(psi_ratio(F).values[0, 0])
        G = BivariateCDF([0, 1], [0, 1], [[0.0, -1e-12], [0.5, 1.0]])
        assert np.isnan(psi_ratio(G).values[0]).all()

    def test_projection_pair_cell(self):
        # four-atom joint law of a commuting projection pair with
        # (p, q, r) = (0.6, 0.7, 0.5): F(0,0) = 1-p-q+r = 0.2
        F = BivariateCDF([0, 1], [0, 1], [[0.2, 0.4], [0.3, 1.0]])
        psi = psi_ratio(F).values
        assert psi[0, 0] == pytest.approx(0.4 * 0.3 / 0.2, abs=1e-12)

    def test_finite_values_dominate_marginals(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            F = random_bivariate_cdf(rng)
            psi = psi_ratio(F).values
            f1 = F.cdf[:, -1][:, None]
            f2 = F.cdf[-1, :][None, :]
            finite = np.isfinite(psi)
            assert np.all(psi[finite] >= np.maximum(f1, f2)[finite] - 1e-12)


class TestBifreeMaxConvolve:
    def test_products_stay_products(self):
        F = product_cdf([0, 1], [0.8, 1.0], [0, 1], [0.9, 1.0])
        G = product_cdf([0, 1], [0.7, 1.0], [0, 1], [0.6, 1.0])
        H = bifree_max_convolve(F, G)
        h1 = np.maximum(0.0, np.array([0.8, 1.0]) + np.array([0.7, 1.0]) - 1.0)
        h2 = np.maximum(0.0, np.array([0.9, 1.0]) + np.array([0.6, 1.0]) - 1.0)
        assert np.allclose(H.cdf, h1[:, None] * h2[None, :])

    def test_identity_element(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        G = BivariateCDF([-5.0], [-5.0], [[1.0]])  # point mass below F
        H = bifree_max_convolve(F, G)
        Fm, _ = merge_grids(F, G)
        assert np.max(np.abs(H.cdf - Fm.cdf)) < 1e-15

    def test_projection_cell_matches_transform_oracle(self):
        law = ProjectionPairLaw(0.6, 0.7, 0.5)
        law2 = ProjectionPairLaw(0.8, 0.5, 0.45)
        H = bifree_max_convolve(projection_indicator_cdf(law),
                                projection_indicator_cdf(law2))
        expected = wedge_moment_closed_form(law, law2)
        assert H.cdf[0, 0] == pytest.approx(expected, abs=1e-12)
        assert H.cdf[0, 0] == pytest.approx(0.1097561, abs=5e-8)

    def test_zero_marginal_cell_is_zero(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        G = BivariateCDF([0, 1], [0, 1], [[0.2, 0.4], [0.3, 1.0]])
        H = bifree_max_convolve(F, G)
        # H1(0) = (0.6 + 0.4 - 1)_+ = 0 forces the whole first row to 0
        assert np.all(H.cdf[0, :] == 0.0)

    def test_underflowing_marginal_product_is_not_0_over_0(self):
        # F(0, 0) = 0 with marginals 1e-200 > 0, whose product underflows to 0:
        # the cell is a +inf ratio, which decodes to 0, not a 0/0 one
        F = BivariateCDF([0, 1], [0, 1], [[0.0, 1e-200], [1e-200, 1.0]])
        G = BivariateCDF([0, 1], [0, 1], np.full((2, 2), 1.0 + 5e-10))
        assert validate_bi(F) == [] and validate_bi(G) == []
        assert psi_ratio(F).values[0, 0] == np.inf
        assert np.isposinf(psi_reference(F.cdf)[0, 0])
        H = bifree_max_convolve(F, G)
        assert H.cdf[0, 0] == 0.0 and convolve_reference(F, G)[0, 0] == 0.0
        assert H.cdf.tobytes() == convolve_reference(F, G).tobytes()
        root = nth_root(F, 2).candidate
        assert root.cdf[0, 0] == 0.0 and nth_root_reference(F, 2)[0, 0] == 0.0
        assert root.cdf.tobytes() == nth_root_reference(F, 2).tobytes()

    def test_invalid_inputs_rejected(self):
        bad = BivariateCDF([0, 1], [0, 1], [[0.5, 0.9], [0.9, 1.0]])
        good = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        with pytest.raises(InvalidCDFError):
            bifree_max_convolve(bad, good)

    def test_psi_additivity(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            F = random_bivariate_cdf(rng)
            G = random_bivariate_cdf(rng)
            H = bifree_max_convolve(F, G)
            Fm, Gm = merge_grids(F, G)
            pf = psi_ratio(Fm).values
            pg = psi_ratio(Gm).values
            ph = psi_ratio(H).values
            mask = np.isfinite(pf) & np.isfinite(pg) & np.isfinite(ph)
            assert np.max(np.abs(ph[mask] - (pf[mask] + pg[mask] - 1.0))) < 1e-9

    def test_commutative_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            F = random_bivariate_cdf(rng)
            G = random_bivariate_cdf(rng)
            assert np.array_equal(bifree_max_convolve(F, G).cdf,
                                  bifree_max_convolve(G, F).cdf)

    def test_marginal_consistency_bitwise(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            F = random_bivariate_cdf(rng)
            G = random_bivariate_cdf(rng)
            H = bifree_max_convolve(F, G)
            H1, H2 = marginals(H)
            F1, F2 = marginals(F)
            G1, G2 = marginals(G)
            e1 = free_max_convolve(F1, G1)
            e2 = free_max_convolve(F2, G2)
            assert np.array_equal(H1.values, e1.evaluate(H1.breaks))
            assert np.array_equal(H2.values, e2.evaluate(H2.breaks))

    def test_monotone_degradation(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            F = random_bivariate_cdf(rng)
            G = random_bivariate_cdf(rng)
            H = bifree_max_convolve(F, G)
            h1 = H.cdf[:, -1][:, None]
            h2 = H.cdf[-1, :][None, :]
            assert np.all(H.cdf <= np.minimum(h1, h2) + 1e-12)


class TestNfold:
    def test_one_fold_is_identity(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        assert nfold(F, 1) is F

    def test_two_fold_equals_pairwise(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            F = random_bivariate_cdf(rng)
            assert np.array_equal(nfold(F, 2).cdf,
                                  bifree_max_convolve(F, F).cdf)

    def test_closed_form_matches_iteration(self):
        rng = np.random.default_rng(27)
        for n in (3, 4, 5):
            F = random_bivariate_cdf(rng)
            iterated = F
            for _ in range(n - 1):
                iterated = bifree_max_convolve(iterated, F)
            assert np.max(np.abs(nfold(F, n).cdf - iterated.cdf)) < 1e-9

    def test_product_three_fold(self):
        u = np.array([0.9, 1.0])
        v = np.array([0.85, 1.0])
        F = product_cdf([0, 1], u, [0, 1], v)
        H = nfold(F, 3)
        expected = (np.maximum(0.0, 3 * u - 2)[:, None]
                    * np.maximum(0.0, 3 * v - 2)[None, :])
        assert np.allclose(H.cdf, expected)

    def test_rejects_bad_n(self):
        F = BivariateCDF([0.0], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            nfold(F, 0)

    @pytest.mark.parametrize("n", [float("inf"), 10 ** 400, 2 ** 53 + 2],
                             ids=["inf", "10**400", "2**53+2"])
    @pytest.mark.parametrize("op", [
        nfold, nth_root,
        lambda F, n: max_stable_residual(F, n, AffineNormalization.identity())],
        ids=["nfold", "nth_root", "max_stable_residual"])
    def test_rejects_counts_a_float_cannot_hold(self, op, n):
        F = BivariateCDF([0.0], [0.0], [[1.0]])
        with pytest.raises(ValueError, match="positive integer that a float can hold"):
            op(F, n)


class TestNthRoot:
    def test_product_two_root(self):
        u = np.array([0.4, 1.0])
        v = np.array([0.6, 1.0])
        F = product_cdf([0, 1], u, [0, 1], v)
        res = nth_root(F, 2)
        assert res.ok
        expected = (((u + 1) / 2)[:, None]) * (((v + 1) / 2)[None, :])
        assert np.allclose(res.candidate.cdf, expected)
        back = nfold(res.candidate, 2)
        assert np.max(np.abs(back.cdf - F.cdf)) < 1e-12

    def test_point_mass_fixed_point(self):
        F = BivariateCDF([2.0], [3.0], [[1.0]])
        for n in (1, 2, 7):
            res = nth_root(F, n)
            assert res.ok
            assert res.candidate.cdf.tolist() == [[1.0]]

    def test_projection_round_trip(self):
        F = projection_indicator_cdf(ProjectionPairLaw(0.6, 0.7, 0.5))
        H = nfold(F, 2)
        res = nth_root(H, 2)
        assert res.ok
        assert np.max(np.abs(res.candidate.cdf - F.cdf)) < 1e-12

    def test_root_then_nfold_recovers_input(self):
        rng = np.random.default_rng(28)
        for n in (2, 3, 5):
            for _ in range(10):
                F = random_bivariate_cdf(rng)
                res = nth_root(F, n)
                if not res.ok:
                    continue
                back = nfold(res.candidate, n)
                assert np.max(np.abs(back.cdf - F.cdf)) < 1e-9

    def test_one_root_with_mass_in_a_zero_marginal_row(self):
        # row 0 has marginal 0 and a cell of 1e-10, within eps: valid input
        F = BivariateCDF([0, 1], [0, 1], [[1e-10, 0.0], [0.5, 1.0]])
        res = nth_root(F, 1)
        assert res.ok
        assert res.candidate.cdf.tolist() == [[0.0, 0.0], [0.5, 1.0]]

    def test_failure_reported_not_raised(self, fixture_cdf):
        res = nth_root(fixture_cdf, 2)
        assert not res.ok
        assert any("rectangle" in v for v in res.violations)


def test_root_marginals_are_correctly_rounded():
    """(f + (n - 1))/n rounds once: each root marginal is the float nearest
    the exact value, so within 0.5 ulp of it."""
    rng = np.random.default_rng(30)
    for n in (2, 64, 2 ** 20):
        for _ in range(20):
            F = random_bivariate_cdf(rng, max_size=8)
            H = nth_root(F, n).candidate.cdf
            for f, r in ((F.cdf[:, -1], H[:, -1]), (F.cdf[-1, :], H[-1, :])):
                assert r.tolist() == [float((Fraction(x) + n - 1) / n) for x in f.tolist()]


# Valid grids whose cells lie in [-eps, 0): kernels treat them as vanishing.
M = 0.5 + 2e-10
EDGE = BivariateCDF([0, 1], [0, 1], [[-1e-10, M], [M, 1.0]])
ROOT_INPUTS = {"Z": [[0.0, 0.0], [0.5, 1.0]], "B": [[-1e-10, 0.0], [0.5, 1.0]],
               "C": [[0.0, -1e-12], [0.5, 1.0]]}


def pushed_below_zero(rng, F):
    """F with about half its cells in [0, 1e-10] lowered by up to 2e-10.

    Each change is at most a fifth of eps, so the grid stays valid.
    """
    c = F.cdf.copy()
    low = (c <= 1e-10) & (rng.random(c.shape) < 0.5)
    c[low] -= rng.uniform(0.0, 2e-10, low.sum())
    return BivariateCDF(F.x_breaks, F.y_breaks, c)


def edge_cdf(rng, nx, ny):
    """The lower Frechet bound (u_i + v_j - 1)_+ of random marginals u, v,
    about a third of whose values are within 5e-11 above 1/2, lowered by
    pushed_below_zero: cells with both marginals above 1/2 and a joint at
    or below 0, like EDGE."""
    def marginal(size):
        m = rng.uniform(0.0, 1.0, size)
        near = rng.random(size) < 0.35
        m[near] = 0.5 + rng.uniform(0.0, 5e-11, near.sum())
        m = np.sort(m)
        m[-1] = 1.0
        return m

    u, v = marginal(nx), marginal(ny)
    W = np.maximum(0.0, u[:, None] + v[None, :] - 1.0)
    return pushed_below_zero(rng, BivariateCDF(random_breaks(rng, nx),
                                               random_breaks(rng, ny), W))


def near_zero_grids(seed, count):
    """Sparse grids and lower-Frechet edge grids, with cells in [-eps, 0)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        nx, ny = rng.integers(1, 13, 2)
        if k % 2:
            yield edge_cdf(rng, nx, ny)
        else:
            yield pushed_below_zero(rng, sparse_bivariate_cdf(
                rng, nx, ny, rng.uniform(0.0, 0.8), rng.uniform(-1.0, 1.0)))


class TestVanishingCells:
    """A cell with F <= 0 vanishes in every kernel: one map, one decode."""

    def test_two_fold_equals_pairwise_at_a_negative_cell(self):
        assert validate_bi(EDGE) == []
        H = nfold(EDGE, 2).cdf
        assert H.tobytes() == bifree_max_convolve(EDGE, EDGE).cdf.tobytes()
        assert H[0, 0] == 0.0

    def test_roots_of_nearby_grids_agree(self):
        roots = {}
        for name, cells in ROOT_INPUTS.items():
            F = BivariateCDF([0, 1], [0, 1], cells)
            assert validate_bi(F) == []
            res = nth_root(F, 2)
            assert res.ok, name
            roots[name] = res.candidate.cdf
        for name in "BC":
            assert np.max(np.abs(roots[name] - roots["Z"])) <= 1e-12

    def test_fuzz_convolve_and_two_fold(self):
        grids = list(near_zero_grids(90, 500))
        assert sum(bool((F.cdf < 0).any()) for F in grids) >= 100
        for F, G in zip(grids, grids[1:] + grids[:1]):
            # the reference's ratio field is -inf at a 0 cell whose marginal
            # product is below 0, so it may add +inf and -inf there
            with np.errstate(invalid="ignore"):
                reference = convolve_reference(F, G)
            assert bifree_max_convolve(F, G).cdf.tobytes() == reference.tobytes()
            assert nfold(F, 2).cdf.tobytes() == bifree_max_convolve(F, F).cdf.tobytes()


class TestMaxStableResidual:
    def test_n1_identity_norm(self):
        F = BivariateCDF([0, 1], [0, 1], [[0.3, 0.6], [0.5, 1.0]])
        assert max_stable_residual(F, 1, AffineNormalization.identity()) == 0.0

    def test_point_mass_fixed_point(self):
        F = BivariateCDF([0.0], [0.0], [[1.0]])
        for n in (1, 2, 5):
            assert max_stable_residual(F, n, AffineNormalization.identity()) == 0.0

    def test_product_not_stable(self):
        u = np.array([0.6, 1.0])
        v = np.array([0.7, 1.0])
        F = product_cdf([0, 1], u, [0, 1], v)
        res = max_stable_residual(F, 2, AffineNormalization.identity())
        # brute force on the shared grid
        h = (np.maximum(0.0, 2 * u - 1)[:, None]
             * np.maximum(0.0, 2 * v - 1)[None, :])
        expected = np.max(np.abs(h - F.cdf))
        assert res == pytest.approx(expected, abs=1e-15)
        assert res > 0.0


# h positively 1-homogeneous and 0 on the axes: the bi-free analogues of a
# Pickands dependence function, for dyadic_max_stable_cdf
DEPENDENCE = {"min": np.minimum,
              "harmonic": lambda u, v: np.where(u + v > 0.0, u * v / (u + v), 0.0)}


class TestDyadicMaxStableFamily:
    @pytest.mark.parametrize("h", sorted(DEPENDENCE))
    @pytest.mark.parametrize("theta", [-1.0, -0.5, -0.25, 0.0])
    def test_valid_and_max_stable(self, h, theta):
        F = dyadic_max_stable_cdf(theta, DEPENDENCE[h])
        exact = [1.0 - 2.0 ** -k for k in range(60)] + [1.0]
        assert F.cdf[:, -1].tolist() == exact and F.cdf[-1, :].tolist() == exact
        assert validate_bi(F) == []
        for m in range(1, 41):
            n = 2 ** m
            norm = AffineNormalization(1.0, m, 1.0, m)
            assert max_stable_residual(F, n, norm) <= 2 * n * 2.0 ** -53, m

    @pytest.mark.parametrize("h", sorted(DEPENDENCE))
    @pytest.mark.parametrize("theta", [-1.0, -0.5, -0.25, 0.0])
    def test_root_of_the_power_recovers_f(self, h, theta):
        """nth_root(nfold(F, n), n) is F within 2*n*2^-53 on the breaks k > m, n = 2^m.

        The power's marginals at break k are 1 - 2^(m - k): clamped to 0 below
        m and exactly 0 at m, where the ratio field is 0/0, so no root brings
        back the joint values of those rows and columns.  From m = 24 on the
        power of most of these laws fails validation within eps (a rectangle
        mass of -1.9e-9), the n*u of the budget, so m stops at 20.
        """
        F = dyadic_max_stable_cdf(theta, DEPENDENCE[h])
        for m in range(1, 21):
            n = 2 ** m
            back = nth_root(nfold(F, n), n).candidate.cdf
            error = np.max(np.abs(back[m + 1:, m + 1:] - F.cdf[m + 1:, m + 1:]))
            assert error <= 2 * n * 2.0 ** -53, m

    @pytest.mark.parametrize("h", sorted(DEPENDENCE))
    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
    def test_positive_theta_is_not_a_law(self, h, theta):
        assert validate_bi(dyadic_max_stable_cdf(theta, DEPENDENCE[h])) != []


@pytest.fixture
def fixture_cdf():
    from pathlib import Path
    from bifreemax import load_bi_json
    return load_bi_json(Path(__file__).parent / "fixtures" / "not_two_divisible_3x3.json")
