import math

import numpy as np
import pytest

from ordtensor import harness, tensor
from ordtensor.tensor import (
    MAX_EPIGRAPH_VARS,
    BudgetError,
    DualCertificate,
    PiSolver,
    TensorMatrix,
    canonical_model,
    eps_norm,
    pair_dual,
    pi_norm,
    pi_norm_decomposition,
    sign_norm,
    weak_1_norm_pi,
    weak_2_norm_pi_lower,
    weak_p_norm_vec,
)

from oracles import epigraph_reference, weak_2_reference

rng = np.random.default_rng(12345)


class TestEpsNorm:
    def test_examples(self):
        assert eps_norm(np.eye(2)) == 1.0
        assert eps_norm(np.zeros((2, 2))) == 0.0
        x, y = np.array([0.5, -1.0]), np.array([1.0, 0.25])
        assert eps_norm(np.outer(x, y)) == 1.0

    def test_elementary_cross_norm(self):
        for _ in range(200):
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-1, 1, size=4)
            u = np.outer(x, y)
            expect = np.abs(x).max() * np.abs(y).max()
            assert abs(eps_norm(u) - expect) < 1e-12


class TestPiNorm:
    def test_identity(self):
        val, cert = pi_norm(np.eye(2))
        assert abs(val - 1.0) < 1e-9
        assert cert.bound <= 1 + 1e-9
        assert pair_dual(np.eye(2), cert) / cert.bound >= 1 - 1e-9

    def test_all_ones_rank_one(self):
        val, _ = pi_norm(np.ones((2, 2)))
        assert abs(val - 1.0) < 1e-9

    def test_cross_norm_on_elementary(self):
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-1, 1, size=3)
            u = np.outer(x, y)
            expect = np.abs(x).max() * np.abs(y).max()
            val, _ = pi_norm(u)
            assert abs(val - expect) < 1e-9

    def test_dominates_eps(self):
        for _ in range(50):
            u = rng.uniform(-1, 1, size=(3, 4))
            assert eps_norm(u) <= pi_norm(u)[0] + 1e-9

    def test_triangle_and_homogeneity(self):
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(3, 3))
            b = rng.uniform(-1, 1, size=(3, 3))
            assert pi_norm(a + b)[0] <= pi_norm(a)[0] + pi_norm(b)[0] + 1e-9
            c = rng.uniform(-2, 2)
            assert abs(pi_norm(c * a)[0] - abs(c) * pi_norm(a)[0]) < 1e-9

    def test_synthesis_oracle_agreement(self):
        for shape in [(2, 2), (2, 3)]:
            for _ in range(20):
                u = rng.uniform(-1, 1, size=shape)
                sup_route = pi_norm(u)[0]
                decomp_route, terms = pi_norm_decomposition(u)
                assert abs(sup_route - decomp_route) < 1e-6
                rebuilt = sum(lam * np.outer(e, d) for lam, e, d in terms)
                assert np.abs(rebuilt - u).max() < 1e-8

    def test_transposed_long_matrix(self):
        u = rng.uniform(-1, 1, size=(12, 3))
        val, cert = pi_norm(u)
        assert cert.matrix.shape == (12, 3)
        assert abs(pi_norm(u.T)[0] - val) < 1e-8

    def test_budget(self):
        with pytest.raises(BudgetError):
            pi_norm(np.ones((11, 12)))
        with pytest.raises(BudgetError):
            pi_norm_decomposition(np.ones((10, 10)), max_constraints=1 << 10)

    def test_certificate_feasibility_rechecked(self):
        u = rng.uniform(-1, 1, size=(4, 5))
        _, cert = pi_norm(u)
        assert abs(sign_norm(cert.matrix) - cert.bound) < 1e-12

    def test_duality_inequality(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        val, cert = pi_norm(u)
        B = cert.matrix / cert.bound
        assert pair_dual(u, DualCertificate(B, 1.0)) <= val + 1e-9


class TestPiSolver:
    def test_repeat_matrix_solved_once(self, monkeypatch):
        calls = []
        real = tensor.linprog

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(tensor, "linprog", counting)
        u = np.random.default_rng(7).uniform(-1, 1, size=(3, 4))
        solver = PiSolver(3, 4)
        first = solver.solve(u)
        second = solver.solve(u.copy())
        assert len(calls) == 1
        assert second[0] == first[0] and second[1] is first[1]
        solver.solve(-u)
        assert len(calls) == 2
        value, cert = PiSolver(3, 4).solve(u)
        assert len(calls) == 3
        assert value == first[0] and np.array_equal(cert.matrix, first[1].matrix)
        assert cert.bound == first[1].bound

    def test_epigraph_matches_entrywise_build(self):
        shapes = [
            (m, n)
            for m in range(1, 9)
            for n in range(m, 11)
            if 2 ** (m - 1) * n <= MAX_EPIGRAPH_VARS
        ]
        assert len(shapes) == 52
        for m, n in shapes:
            solver = PiSolver(m, n)
            A, b, bounds = solver._epigraph
            ref_A, ref_b = epigraph_reference(solver.E, n)
            assert A.shape == ref_A.shape
            for part in ("indptr", "indices", "data"):
                got, want = getattr(A, part), getattr(ref_A, part)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(b, ref_b)
            P = len(solver.E)
            assert np.array_equal(
                bounds, np.array([(-1.0, 1.0)] * (m * n) + [(0.0, 1.0)] * (P * n))
            )


class TestWeakNorms:
    def test_vector_formulas(self):
        assert weak_p_norm_vec([[1, 0], [0, 1]], 1) == 1.0
        assert math.isclose(weak_p_norm_vec([[1, 1], [1, 1]], 2), math.sqrt(2))
        x = rng.uniform(-1, 1, size=4)
        assert weak_p_norm_vec([x], 2) == np.abs(x).max()

    def test_weak1_single_and_aligned(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        pv = pi_norm(u)[0]
        assert abs(weak_1_norm_pi([u]) - pv) < 1e-9
        assert abs(weak_1_norm_pi([u, -u]) - 2 * pv) < 1e-8

    def test_weak1_disjoint_elementary(self):
        us = []
        for k in range(5):
            g = np.zeros(10)
            g[2 * k : 2 * k + 2] = rng.uniform(0.2, 1.0, size=2) * (-1) ** k
            g /= np.abs(g).max()
            us.append(np.outer(np.eye(5)[k], g))
        assert weak_1_norm_pi(us) <= 1 + 1e-9

    def test_weak1_budget(self):
        with pytest.raises(BudgetError):
            weak_1_norm_pi([np.eye(2)] * 9)

    def test_weak2_lower_single(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        assert weak_2_norm_pi_lower([u], samples=4, seed=1) >= pi_norm(u)[0] - 1e-9

    def test_weak2_lower_unit_vector_floor(self):
        us = [np.outer(np.eye(3)[k], np.eye(3)[k]) for k in range(3)]
        assert weak_2_norm_pi_lower(us, samples=4, seed=0) >= 1 - 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weak2_matches_fresh_solves_on_scenarios(self, seed, monkeypatch):
        # the groth pairs and the staircase halves of `verify all`
        seen = []

        def recording(us, **kw):
            value = weak_2_norm_pi_lower(us, **kw)
            seen.append((us, kw, value))
            return value

        monkeypatch.setattr(harness, "weak_2_norm_pi_lower", recording)
        harness.run_blocking_demo(harness.ScenarioConfig(xi="1", seed=seed))
        harness.run_groth_probe(harness.ScenarioConfig(seed=seed))
        assert len(seen) == 5
        for us, kw, value in seen:
            assert value == weak_2_reference(us, **kw)

    def test_weak2_matches_fresh_solves_on_random_families(self):
        local = np.random.default_rng(2024)
        families = [(1, (3, 3)), (3, (3, 3)), (4, (2, 5)), (2, (4, 3)), (3, (5, 2))]
        for k, shape in families:
            us = [local.uniform(-1, 1, size=shape) for _ in range(k)]
            for seed in (0, 5):
                got = weak_2_norm_pi_lower(us, samples=6, seed=seed)
                assert got == weak_2_reference(us, samples=6, seed=seed)

    def test_weak2_deterministic(self):
        us = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(3)]
        a = weak_2_norm_pi_lower(us, samples=8, seed=7)
        b = weak_2_norm_pi_lower(us, samples=8, seed=7)
        assert a == b


class TestInjectiveWeak2Tensorization:
    def test_coordinate_bound(self):
        # weakly 2-summing norm in the injective model is a coordinate
        # formula; the tensor pairs are bounded by the factor norms
        for _ in range(30):
            xs = rng.uniform(-1, 1, size=(4, 3))
            ys = rng.uniform(-1, 1, size=(4, 5))
            pairs = np.einsum("ki,kj->kij", xs, ys)
            lhs = math.sqrt((pairs**2).sum(axis=0).max())
            rhs = weak_p_norm_vec(xs, 2) * np.abs(ys).max()
            assert lhs <= rhs + 1e-12


class TestModelHelpers:
    def test_tensor_matrix_wrapper(self):
        tm = TensorMatrix(np.eye(2), row_labels=("a", "b"))
        assert tm.shape == (2, 2)
        with pytest.raises(ValueError):
            TensorMatrix(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            TensorMatrix(np.array([np.inf]).reshape(1, 1))
        assert abs(pi_norm(tm)[0] - 1.0) < 1e-9

    def test_canonical_model_preserves_norms(self):
        u = rng.uniform(-1, 1, size=(3, 3))
        padded = np.vstack([u, u[1], np.zeros(3)])
        padded = np.hstack([padded, padded[:, :1]])
        small = canonical_model(padded)
        assert abs(pi_norm(small)[0] - pi_norm(u)[0]) < 1e-9
        assert abs(eps_norm(small) - eps_norm(u)) < 1e-12
