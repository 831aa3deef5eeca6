import decimal
import math

import numpy as np
import pytest

from bifreemax import (
    InvalidLawError,
    LimitConvergenceError,
    ProjectionPairLaw,
    atom_mass_limit,
    bifree_max_convolve,
    bifree_sum_cauchy,
    cauchy_from_atoms,
    cauchy_pair,
    cauchy_projection,
    k_projection,
    k_projection_excess,
    projection_indicator_cdf,
    reduced_r_transform,
    wedge_moment_closed_form,
    wedge_moment_expression,
    wedge_moment_limit,
)
from bifreemax import oracle
from helpers import random_law

LAW_A = ProjectionPairLaw(0.6, 0.7, 0.5)
LAW_B = ProjectionPairLaw(0.8, 0.5, 0.45)
WEDGE_AB = 0.08 / (0.84 + 0.4 / 0.45 - 1.0)  # = 0.1097561...


class TestProjectionPairLaw:
    def test_delta(self):
        assert LAW_A.delta == pytest.approx(0.5 - 0.42, abs=1e-15)

    def test_frechet_bounds_enforced(self):
        with pytest.raises(InvalidLawError):
            ProjectionPairLaw(0.6, 0.7, 0.65)  # r > min(p, q)
        with pytest.raises(InvalidLawError):
            ProjectionPairLaw(0.6, 0.7, 0.2)  # r < p + q - 1
        with pytest.raises(InvalidLawError):
            ProjectionPairLaw(1.2, 0.5, 0.5)
        # a law within 1e-12 of a bound is accepted, and no further out
        for r in (0.5 + 1e-11, -1e-11):
            with pytest.raises(InvalidLawError):
                ProjectionPairLaw(0.5, 0.5, r)
        ProjectionPairLaw(0.5, 0.5, 0.5 + 5e-13)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_joint_trace_rejected(self, r):
        with pytest.raises(InvalidLawError, match=r"^r = "):
            ProjectionPairLaw(0.6, 0.7, r)

    def test_near_degenerate_flag(self):
        assert ProjectionPairLaw(0.5, 0.5, 0.5).near_degenerate
        assert not ProjectionPairLaw(0.6, 0.7, 0.45).near_degenerate


class TestCauchyProjection:
    def test_full_projection(self):
        assert cauchy_projection(3.0, 1.0) == pytest.approx(0.5)

    def test_zero_projection(self):
        assert cauchy_projection(3.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_inverse_point(self):
        z = 1.0 + math.sqrt(2.0) / 2.0
        assert cauchy_projection(z, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_poles_rejected(self):
        for z in (0.0, 1.0):
            with pytest.raises(ValueError):
                cauchy_projection(z, 0.5)


class TestKProjection:
    def test_full_projection(self):
        assert k_projection(2.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_zero_projection(self):
        assert k_projection(2.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_half_projection_at_one(self):
        K = k_projection(1.0, 0.5)
        assert K == pytest.approx(1.0 + math.sqrt(2.0) / 2.0, abs=1e-14)
        assert cauchy_projection(K, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_inversion_grid(self):
        for p in np.arange(0.1, 0.95, 0.1):
            for z in (0.01, 0.1, 1.0, 10.0, 100.0):
                K = k_projection(z, p)
                assert abs(cauchy_projection(K, p) - z) <= 1e-10

    def test_branch_range(self):
        for p in (0.05, 0.3, 0.9, 1.0):
            for z in (1e-6, 0.5, 1.0, 7.0, 1e8):
                K = k_projection(z, p)
                assert K > 1.0

    def test_small_z_asymptotics(self):
        for p in (0.2, 0.8):
            for z in (1e-8, 1e-10):
                assert z * k_projection(z, p) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_projection_excess(-1.0, 0.5)
        with pytest.raises(ValueError):
            k_projection(0, 0.5)

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_excess_rejects_a_trace_that_is_not_positive(self, p):
        with pytest.raises(ValueError, match=r"requires p > 0, got"):
            k_projection_excess(2.0, p)


class TestCauchyPair:
    def test_independent_factorization(self):
        law = ProjectionPairLaw(0.3, 0.8, 0.24)  # r = pq
        for z, w in [(2.0, 3.0), (5.0, -2.0), (0.5, 0.7)]:
            lhs = cauchy_pair(z, w, law)
            rhs = cauchy_projection(z, 0.3) * cauchy_projection(w, 0.8)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_point_mass_at_one_one(self):
        law = ProjectionPairLaw(1.0, 1.0, 1.0)
        assert cauchy_pair(3.0, 3.0, law) == pytest.approx(0.25)

    def test_four_atom_sum_oracle(self):
        # independent route: the Cauchy integral over the four atoms
        def atoms_sum(z, w, law):
            p, q, r = law.p, law.q, law.r
            return (r / ((z - 1) * (w - 1)) + (p - r) / ((z - 1) * w)
                    + (q - r) / (z * (w - 1)) + (1 - p - q + r) / (z * w))

        assert atoms_sum(2.0, 2.0, LAW_A) == pytest.approx(0.70, abs=1e-15)
        assert cauchy_pair(2.0, 2.0, LAW_A) == pytest.approx(0.70, abs=1e-15)
        rng = np.random.default_rng(31)
        for _ in range(50):
            law = random_law(rng)
            z, w = rng.uniform(1.5, 20.0, 2)
            assert cauchy_pair(z, w, law) == pytest.approx(
                atoms_sum(z, w, law), abs=1e-10)

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            cauchy_pair(1.0, 2.0, LAW_A)


class TestReducedRTransform:
    def test_independent_is_zero(self):
        law = ProjectionPairLaw(0.3, 0.8, 0.24)
        assert reduced_r_transform(2.0, 5.0, law) == 0.0

    def test_equal_projections_closed_form(self):
        law = ProjectionPairLaw(0.5, 0.5, 0.5)
        K = k_projection(1.0, 0.5)
        expected = 0.25 / ((K - 0.5) ** 2 + 0.25)
        assert reduced_r_transform(1.0, 1.0, law) == pytest.approx(
            expected, abs=1e-14)

    def test_matches_definition(self):
        # definition: 1 - z*w / G(K(z), K(w))
        rng = np.random.default_rng(32)
        for _ in range(60):
            law = random_law(rng)
            z, w = rng.uniform(0.05, 50.0, 2)
            kp = k_projection(z, law.p)
            kq = k_projection(w, law.q)
            definition = 1.0 - z * w / cauchy_pair(kp, kq, law)
            assert abs(reduced_r_transform(z, w, law) - definition) <= 1e-10

    def test_vanishes_at_origin(self):
        for law in (LAW_A, LAW_B):
            assert abs(reduced_r_transform(1e-12, 1e-12, law)) < 1e-10

    def test_limit_along_diagonal(self):
        # along t -> inf the reduced transform tends to 1 - pq/r
        for law in (LAW_A, LAW_B):
            val = reduced_r_transform(1e9, 1e9, law)
            assert val == pytest.approx(1.0 - law.p * law.q / law.r, abs=1e-7)


class TestWedgeMomentExpression:
    def test_both_independent(self):
        law = ProjectionPairLaw(0.6, 0.5, 0.30)
        law2 = ProjectionPairLaw(0.8, 0.7, 0.56)
        z, w = 3.0, 4.0
        kp = k_projection(z, 0.6)
        kp2 = k_projection(z, 0.8)
        kq = k_projection(w, 0.5)
        kq2 = k_projection(w, 0.7)
        expected = (z * w * (kp + kp2 - 1.0 / z - 2.0)
                    * (kq + kq2 - 1.0 / w - 2.0))
        got = wedge_moment_expression(z, w, law, law2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_point_masses_give_one(self):
        law = ProjectionPairLaw(1.0, 1.0, 1.0)
        for z, w in [(0.5, 0.25), (2.0, 9.0)]:
            assert wedge_moment_expression(z, w, law, law) == pytest.approx(
                1.0, abs=1e-13)

    def test_large_argument_value(self):
        v = wedge_moment_expression(1e4, 1e4, LAW_A, LAW_B)
        assert v == pytest.approx(WEDGE_AB, abs=1e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wedge_moment_expression(-1.0, 2.0, LAW_A, LAW_B)
        zero_p = ProjectionPairLaw(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            wedge_moment_expression(1.0, 1.0, zero_p, LAW_B)


class TestWedgeMomentLimit:
    def test_point_masses(self):
        law = ProjectionPairLaw(1.0, 1.0, 1.0)
        assert wedge_moment_limit(law, law) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_sum(self):
        law = ProjectionPairLaw(0.5, 0.6, 0.4)
        law2 = ProjectionPairLaw(0.5, 0.6, 0.4)
        assert wedge_moment_limit(law, law2) == 0.0

    def test_reference_pair(self):
        got = wedge_moment_limit(LAW_A, LAW_B)
        assert got == pytest.approx(WEDGE_AB, abs=1e-7)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            law = random_law(rng)
            law2 = random_law(rng)
            assert abs(wedge_moment_limit(law, law2)
                       - wedge_moment_closed_form(law, law2)) <= 1e-6

    def test_unstable_ladder_raises_with_its_trace(self, monkeypatch):
        """With no tolerance the rounding of the last two extrapolants fails
        the criterion; the error carries the six ladder values."""
        monkeypatch.setattr(oracle, "EPS_LIM", 0.0)
        with pytest.raises(LimitConvergenceError, match="wedge moment ladder not stable") as got:
            wedge_moment_limit(LAW_A, LAW_B)
        evals = [wedge_moment_expression(t, t, LAW_A, LAW_B) for t in oracle.LIMIT_LADDER]
        assert got.value.trace == evals
        assert str(got.value).endswith(f"; evaluation trace: {evals}")


class TestWedgeMomentClosedForm:
    def test_point_masses(self):
        law = ProjectionPairLaw(1.0, 1.0, 1.0)
        assert wedge_moment_closed_form(law, law) == 1.0

    def test_reference_value(self):
        assert wedge_moment_closed_form(LAW_A, LAW_B) == pytest.approx(
            0.1097561, abs=5e-8)

    def test_zero_clause(self):
        law = ProjectionPairLaw(0.5, 0.5, 0.0)  # vanishing joint trace
        assert wedge_moment_closed_form(law, LAW_B) == 0.0

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            law = random_law(rng)
            law2 = random_law(rng)
            assert (wedge_moment_closed_form(law, law2)
                    == wedge_moment_closed_form(law2, law))

    def test_bounded_by_meet_traces(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            law = random_law(rng)
            law2 = random_law(rng)
            v = wedge_moment_closed_form(law, law2)
            a = max(0.0, law.p + law2.p - 1.0)
            b = max(0.0, law.q + law2.q - 1.0)
            assert 0.0 <= v <= min(a, b) + 1e-12


class TestAtomMassLimit:
    def test_point_mass_at_top(self):
        G = cauchy_from_atoms([(2.0, 2.0, 1.0)])
        assert atom_mass_limit(G, (2.0, 2.0)) == pytest.approx(1.0, abs=1e-7)

    def test_no_atom_at_top(self):
        # product of uniform discrete laws on {0,1}, probed above the support
        atoms = [(x, y, 0.25) for x in (0.0, 1.0) for y in (0.0, 1.0)]
        G = cauchy_from_atoms(atoms)
        assert atom_mass_limit(G, (2.0, 2.0)) <= 1e-7

    def test_translated_top(self):
        G = cauchy_from_atoms([(5.0, -1.0, 0.3), (4.0, -2.0, 0.7)])
        assert atom_mass_limit(G, (5.0, -1.0)) == pytest.approx(0.3, abs=1e-7)

    def test_composite_bifree_sum(self):
        G = bifree_sum_cauchy(LAW_A, LAW_B)
        got = atom_mass_limit(G, (2.0, 2.0))
        assert got == pytest.approx(WEDGE_AB, abs=1e-6)

    def test_divergent_ladder_raises_with_its_trace(self):
        """A transform with a double pole at the top has no finite atom mass:
        (z - 2)(w - 2) G doubles along the ladder, and the error holds all 30 values."""
        with pytest.raises(LimitConvergenceError, match="atom-mass ladder not stable") as got:
            atom_mass_limit(lambda z, w: 1.0 / ((z - 2.0) * (w - 2.0)) ** 2, (2.0, 2.0))
        assert got.value.trace == [4.0 ** n for n in range(1, 31)]


class TestBifreeSumCauchy:
    def test_rejects_a_zero_marginal_trace(self):
        with pytest.raises(ValueError, match="all marginal traces must be positive"):
            bifree_sum_cauchy(ProjectionPairLaw(0.0, 0.5, 0.0), LAW_B)

    @pytest.mark.parametrize("Z, W", [(2.0, 3.0), (3.0, 2.0), (-5.0, 3.0), (math.nan, 3.0)])
    def test_evaluator_rejects_points_outside_its_domain(self, Z, W):
        with pytest.raises(ValueError, match=r"defined for Z > 2, W > 2"):
            bifree_sum_cauchy(LAW_A, LAW_B)(Z, W)


class TestThreeRoutes:
    def test_master_cross_check(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            law = random_law(rng)
            law2 = random_law(rng)
            closed = wedge_moment_closed_form(law, law2)
            limit = wedge_moment_limit(law, law2)
            H = bifree_max_convolve(projection_indicator_cdf(law),
                                    projection_indicator_cdf(law2))
            cell = float(H.cdf[0, 0])
            values = [closed, limit, cell]
            assert max(values) - min(values) <= 1e-6


def k_sum_root_reference(Z, p, p2):
    """Positive root of (Z^2 - 2Z) z^2 + 2(1 - p - p') z - (1 - (p - p')^2/(Z - 1)^2),
    from the exact float inputs in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        Z, p, p2 = map(decimal.Decimal, (Z, p, p2))
        a = Z * Z - 2 * Z
        b = 1 - p - p2
        c = 1 - (p - p2) ** 2 / (Z - 1) ** 2
        return ((b * b + a * c).sqrt() - b) / a


class TestKSumInverse:
    # Z spread over (2, inf): close to 2 the root is large, far from it tiny
    Z_SPREAD = (2.0 + 2.0 ** -30, 2.0 + 1e-12, 2.0 + 1e-9, 2.0 + 1e-6, 2.001,
                2.5, 3.0, 10.0, 1e3, 1e6, 1e12)
    EDGE_TRACES = [(1.0, 1.0), (1e-9, 1.0), (0.3, 0.7), (0.95, 0.05)]

    def traces(self):
        rng = np.random.default_rng(3)
        pairs = list(self.EDGE_TRACES)
        for _ in range(120):
            law, law2 = random_law(rng), random_law(rng)
            pairs += [(law.p, law2.p), (law.q, law2.q)]
        return pairs

    def test_root_of_the_quadratic_to_rounding(self):
        worst = 0.0
        for p, p2 in self.traces():
            for Z in self.Z_SPREAD:
                ref = k_sum_root_reference(Z, p, p2)
                got = oracle._invert_k_sum(Z, p, p2)
                worst = max(worst, abs(decimal.Decimal(got) - ref) / ref)
        assert worst <= 1e-15

    def test_root_inverts_the_k_sum(self):
        for p, p2 in self.traces():
            for Z in self.Z_SPREAD:
                z = oracle._invert_k_sum(Z, p, p2)
                back = (2.0 + k_projection_excess(z, p) + k_projection_excess(z, p2)
                        - 1.0 / z)
                assert back == pytest.approx(Z, rel=1e-12, abs=0.0)


def test_atom_route_is_stable_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        law, law2 = random_law(rng), random_law(rng)
        got = atom_mass_limit(bifree_sum_cauchy(law, law2), (2.0, 2.0))
        assert got == pytest.approx(wedge_moment_closed_form(law, law2), abs=1e-6)
