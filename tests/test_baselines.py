"""Tests for the plain-simplex projection and the two iterative methods."""

import numpy as np
import numpy.testing as npt
import pytest

from cappedproj import (
    InvalidInputError,
    ProjectionInput,
    SolverConfig,
    admm_project,
    dykstra_project,
    enumerate_oracle,
    project_capped_box,
    project_capped_simplex,
    project_simplex,
    random_instance,
)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-8 and cfg.max_iters == 100_000

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(tol=0.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iters=0)


class TestProjectSimplex:
    def test_symmetric_pair(self):
        npt.assert_allclose(project_simplex(np.array([0.6, 0.6]), 1.0), [0.5, 0.5], atol=1e-15)

    def test_zero_target(self):
        npt.assert_array_equal(project_simplex(np.array([0.3, -0.4]), 0.0), np.zeros(2))

    def test_point_already_on_simplex(self):
        y = np.array([0.2, 0.5, 0.3])
        npt.assert_allclose(project_simplex(y, 1.0), y, atol=1e-12)

    def test_output_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 30))
            y = rng.normal(size=d) * 3.0
            s = float(rng.uniform(0.0, 5.0))
            x = project_simplex(y, s)
            assert x.min() >= 0.0
            assert abs(x.sum() - s) <= 1e-9 * max(1.0, s)

    def test_agrees_with_capped_solution_when_cap_inactive(self):
        # targets at most 1 keep every coordinate at most 1, so the capped
        # problem reduces to this one
        rng = np.random.default_rng(12)
        for _ in range(150):
            d = int(rng.integers(1, 9))
            y = rng.normal(size=d)
            s = float(rng.uniform(0.0, 1.0))
            npt.assert_allclose(
                project_simplex(y, s), enumerate_oracle(y, s), atol=1e-10
            )

    def test_negative_target_rejected(self):
        with pytest.raises(InvalidInputError):
            project_simplex(np.array([0.1]), -0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            project_simplex(np.array([np.nan]), 1.0)


class TestDykstra:
    def test_feasible_start_converges_immediately(self):
        y = np.array([0.25, 0.5, 0.25])
        res = dykstra_project(ProjectionInput(y, 1.0))
        assert res.converged and res.iterations == 1
        npt.assert_array_equal(res.x, y)

    def test_three_point_instance(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = dykstra_project(inp)
        assert res.converged
        npt.assert_allclose(res.x, [0.75, 0.25, 1.0], atol=1e-6)

    def test_matches_exact_solver(self):
        for seed in range(20):
            inp = random_instance(60, seed)
            res = dykstra_project(inp)
            exact = project_capped_simplex(inp).x
            assert res.converged
            assert np.max(np.abs(res.x - exact)) <= 1e-6, seed

    def test_iterate_respects_the_cap_exactly(self):
        inp = random_instance(80, 5)
        res = dykstra_project(inp)
        assert res.x.max() <= 1.0

    def test_iteration_budget_respected(self):
        inp = random_instance(50, 3)
        res = dykstra_project(inp, SolverConfig(tol=1e-16, max_iters=3))
        assert not res.converged
        assert res.iterations == 3


class TestAdmm:
    def test_feasible_start_is_a_fixed_point(self):
        y = np.array([0.25, 0.5, 0.25])
        res = admm_project(ProjectionInput(y, 1.0))
        assert res.converged and res.iterations == 1
        npt.assert_array_equal(res.x, y)

    def test_three_point_instance(self):
        inp = ProjectionInput(np.array([0.3, -0.2, 1.5]), 2.0)
        res = admm_project(inp)
        assert res.converged
        npt.assert_allclose(res.x, [0.75, 0.25, 1.0], atol=1e-6)

    def test_matches_exact_solver(self):
        for seed in range(20):
            inp = random_instance(60, 100 + seed)
            res = admm_project(inp)
            exact = project_capped_simplex(inp).x
            assert res.converged
            assert np.max(np.abs(res.x - exact)) <= 1e-6, seed

    def test_iterate_stays_in_the_box_exactly(self):
        inp = random_instance(80, 6)
        res = admm_project(inp)
        assert res.x.min() >= 0.0
        assert res.x.max() <= 1.0

    def test_iteration_budget_respected(self):
        inp = random_instance(50, 8)
        res = admm_project(inp, SolverConfig(tol=1e-16, max_iters=4))
        assert not res.converged
        assert res.iterations == 4


class TestGeneralCapBaselines:
    def test_both_methods_handle_a_nonunit_cap(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=30)
        inp = ProjectionInput(y, 7.0, t=0.5)
        exact = project_capped_box(inp).x
        for solver in (dykstra_project, admm_project):
            res = solver(inp)
            assert res.converged
            assert np.max(np.abs(res.x - exact)) <= 1e-6
