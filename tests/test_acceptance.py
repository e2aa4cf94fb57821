"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time

import numpy as np
import pytest

from ocm import cli
from ocm.approx import global_approx, rhs_from_exprs
from ocm.baire import GridFn, lower_baire, nlsc_regularize, upper_baire
from ocm.domain import Box, build_partition
from ocm.expr import ParseError, parse_expr, parse_system, print_expr
from ocm.order import cauchy_gap

import test_baire
import test_expr
import test_filters

ETA = 1e-9

SUITE = [
    # name, n, K, m, equations, rhs, lo, hi, cells
    ("transport", 1, 1, 1, ["D(u1,(1))"], ["x1"], (0.0,), (1.0,), (10,)),
    ("identity", 1, 1, 1, ["u1"], ["0"], (0.0,), (1.0,), (10,)),
    ("second-order", 1, 1, 2, ["D(u1,(2)) + u1"], ["1"], (0.0,), (1.0,), (10,)),
    ("squared-gradient", 1, 1, 1, ["D(u1,(1))^2 + u1"], ["1 + x1"], (0.0,), (1.0,), (10,)),
    ("two-dim", 2, 1, 1, ["D(u1,(1,0))"], ["x1 * x2"], (0.0, 0.0), (1.0, 1.0), (2, 2)),
    ("system", 1, 2, 1, ["D(u1,(1))", "u2 + D(u1,(1))"], ["x1", "1 + x1"], (0.0,), (1.0,), (10,)),
]

EPSILONS = (0.1, 0.01)


@pytest.fixture(scope="module")
def suite_runs():
    """All suite problems at both band widths, single-threaded, timed."""
    runs = {}
    for name, n, K, m, eqs, rhs_texts, lo, hi, cells in SUITE:
        system = parse_system("\n".join(eqs), n, K, m)
        rhs = rhs_from_exprs(rhs_texts, n)
        partition = build_partition(Box(lo, hi), cells)
        for eps in EPSILONS:
            t0 = time.perf_counter()
            U, cert = global_approx(system, rhs, partition, eps, seed=11, workers=1)
            wall = time.perf_counter() - t0
            runs[(name, eps)] = (system, rhs, U, cert, wall)
    return runs


def test_c1_one_sided_band(suite_runs):
    for (name, eps), (system, rhs, U, cert, wall) in suite_runs.items():
        for comp in cert.components:
            assert comp.samples >= 10_000, (name, eps, comp.samples)
            assert comp.min_residual >= -eps - 1e-9, (name, eps)
            assert comp.max_residual <= 1e-9, (name, eps)
        assert cert.passed, (name, eps)
        assert wall < 10.0, (name, eps, wall)
    print("\n[acceptance] C1 one-sided band over the 6-problem suite: PASS")


def test_c2_center_residual_identity(suite_runs):
    for (name, eps), (system, rhs, U, cert, wall) in suite_runs.items():
        centers = U.centers.T  # jets take points (N, n)
        jets = U.jets(centers)
        XI = jets.reshape(len(centers), -1).T
        fv = rhs(centers)
        for i in range(system.K):
            from ocm.expr import eval_component_batch

            tv = eval_component_batch(system, i, centers.T, XI)
            np.testing.assert_allclose(tv - fv[i], -eps / 2, atol=1e-9,
                                       err_msg=f"{name} eps={eps} comp={i + 1}")
    print("[acceptance] C2 center residual equals -eps/2 within 1e-9: PASS")


def test_c3_refinement_law(tmp_path):
    cfg = tmp_path / "transport.cfg"
    cfg.write_text(
        "[domain]\nlo = [0.0]\nhi = [1.0]\ncells = [10]\n"
        "[system]\nn = 1\nK = 1\nm = 1\nequations = [\"D(u1,(1))\"]\nrhs = [\"x1\"]\n"
        "[solve]\nepsilon = 0.1\nrefine_steps = 20\nsamples_per_cell = 60\n"
        "margin = 0.05\nseed = 7\neta = 1e-9\n"
    )
    report = cli.run_refine(cfg, tmp_path / "out")
    trace = report.trace
    assert report.exit_code == 0
    assert len(trace.steps) == 20
    for step in trace.steps:
        assert step.sup_gap_to_rhs <= 1.0 / step.n + 2e-9, step.n
        assert step.repairs == 0, step.n
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        sel = ~(prev.images[0].mask_array() | cur.images[0].mask_array())
        assert np.all(cur.images[0].values[sel] >= prev.images[0].values[sel])
    for n in range(1, 21):
        assert cauchy_gap(trace, n, 20).max() <= 1.0 / n + 2e-9, n
    print("[acceptance] C3 refinement law over 20 steps: PASS")


def test_c4_envelope_operator_laws():
    rng = np.random.default_rng(101)
    for trial in range(100):
        f = test_baire.random_piecewise_gridfn(rng)
        assert f.values.size <= 1000
        low = lower_baire(f)
        up = upper_baire(f)
        reg = nlsc_regularize(f)
        # exact oracle equivalence
        np.testing.assert_array_equal(low.values, test_baire.oracle_lower(f))
        np.testing.assert_array_equal(up.values, test_baire.oracle_upper(f))
        # envelope ordering
        assert np.all(low.values <= f.values) and np.all(f.values <= up.values)
        # idempotence of I, S, I o S, exact nodewise
        np.testing.assert_array_equal(lower_baire(low).values, low.values)
        np.testing.assert_array_equal(upper_baire(up).values, up.values)
        np.testing.assert_array_equal(nlsc_regularize(reg).values, reg.values)
        # duality
        neg = GridFn(f.axes, -f.values, f.mask)
        np.testing.assert_array_equal(upper_baire(neg).values, -low.values)
        np.testing.assert_array_equal(lower_baire(neg).values, -up.values)
        # monotonicity
        g = GridFn(f.axes, f.values + np.abs(rng.normal(0, 1, f.shape)), f.mask)
        assert np.all(lower_baire(f).values <= lower_baire(g).values)
        assert np.all(upper_baire(f).values <= upper_baire(g).values)
    print("[acceptance] C4 envelope operator laws on 100 random grid functions: PASS")


RANGE_CASES = [
    ("squared-gradient-negative", '"D(u1,(1))^2"', '"0 - 1"'),
    ("sine-out-of-range", '"sin(u1)"', '"2"'),
]


def test_c5_range_condition_rejection(tmp_path):
    base = (
        "[domain]\nlo = [0.0]\nhi = [1.0]\ncells = [4]\n"
        "[system]\nn = 1\nK = 1\nm = 1\nequations = [EQ]\nrhs = [RHS]\n"
        "[solve]\nepsilon = 0.1\nseed = 1\n"
    )
    for name, eq, rhs in RANGE_CASES:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(base.replace("EQ", eq).replace("RHS", rhs))
        out = tmp_path / f"out-{name}"
        code = cli.main(["solve", str(cfg), "--out", str(out)])
        assert code == 3, name
        assert not (out / "certificate.csv").exists(), name
    print("[acceptance] C5 range-condition rejection exits 3, no certificate: PASS")


def test_c6_convergence_space_checkers():
    # checker verdicts match the literal brute-force oracle on every
    # antichain-generated table over ground sets of size 1, 2 and 3: all
    # assignments of one antichain per point
    tables = 0
    for ground in (frozenset(("a",)), test_filters.AB, test_filters.ABC):
        chains = test_filters.all_antichains(ground)
        points = sorted(ground)
        count = 0
        for combo in itertools.product(range(len(chains)), repeat=len(points)):
            assignment = {x: chains[i] for x, i in zip(points, combo)}
            table = test_filters._cs_table(ground, assignment)
            res = test_filters.check_convergence_structure(table)
            violated, hausdorff = test_filters.oracle_convergence(table)
            assert res.ok == (not violated), assignment
            if violated:
                assert res.failed_axiom == min(violated), assignment
            assert res.hausdorff == hausdorff, assignment
            count += 1
        assert count == len(chains) ** len(points)
        tables += count
    assert tables == 2 + 25 + 6859

    # proposition instances: induced-of-initial vs initial-of-induced
    rng = np.random.default_rng(31)
    grounds = [frozenset(("p", "q")), test_filters.ABC, frozenset(("p", "q", "r", "s"))]
    for _ in range(200):
        ground = grounds[int(rng.integers(0, len(grounds)))]
        n_factors = int(rng.integers(1, 3))
        maps, structs = [], []
        for _ in range(n_factors):
            factor = test_filters.AB if rng.random() < 0.5 else test_filters.ABC
            elems = sorted(factor)
            maps.append({x: elems[int(rng.integers(0, len(elems)))] for x in ground})
            structs.append(test_filters._random_ucs_table(rng, factor, close=True))
        assert test_filters.check_initial_compat(ground, maps, structs)

    # relation algebra laws: exhaustive on two points, sampled on three
    universe = list(itertools.product(test_filters.AB, test_filters.AB))
    rels = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]
    from ocm.filters import rel_compose, rel_inverse

    for u, v in itertools.product(rels, repeat=2):
        assert rel_inverse(rel_compose(u, v)) == rel_compose(rel_inverse(v), rel_inverse(u))
    for u, v, w in itertools.product(rels, repeat=3):
        assert rel_compose(rel_compose(u, v), w) == rel_compose(u, rel_compose(v, w))
    print("[acceptance] C6 convergence-space checkers vs brute force, "
          "200 proposition instances, relation laws: PASS")


def test_c7_parser_round_trip_and_errors():
    assert len(test_expr.CORPUS) == 20
    for text in test_expr.CORPUS:
        tree = parse_expr(text, 1, 1, 2)
        assert parse_expr(print_expr(tree), 1, 1, 2) == tree
    error_cases = [
        ("u2", 1, 1, 1),          # unknown component
        ("x2", 1, 1, 1),          # unknown coordinate
        ("D(u1,(3))", 1, 1, 2),   # order above m
        ("D(u1,(1,1))", 1, 1, 2), # wrong multi-index arity
        ("u1 +", 1, 1, 1),        # syntax
        ("(u1", 1, 1, 1),         # unbalanced parenthesis
    ]
    for text, n, K, m in error_cases:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, n, K, m)
        assert exc.value.line >= 1 and exc.value.col >= 1, text
        assert "line" in str(exc.value) and "column" in str(exc.value)
    print("[acceptance] C7 parser round-trip on 20 expressions, errors carry line/column: PASS")


def test_c8_determinism(tmp_path, monkeypatch):
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(
        "[domain]\nlo = [0.0]\nhi = [1.0]\ncells = [10]\n"
        "[system]\nn = 1\nK = 2\nm = 1\n"
        "equations = [\"D(u1,(1))\", \"u2 + D(u1,(1))\"]\nrhs = [\"x1\", \"1 + x1\"]\n"
        "[solve]\nepsilon = 0.1\nrefine_steps = 6\nsamples_per_cell = 80\nseed = 13\n"
    )
    outputs = []
    for threads in ("1", "4"):
        for run in range(2):
            monkeypatch.setenv("OCM_THREADS", threads)
            out = tmp_path / f"o{threads}{run}"
            assert cli.main(["solve", str(cfg), "--out", str(out)]) == 0
            assert cli.main(["refine", str(cfg), "--out", str(out)]) == 0
            outputs.append(
                ((out / "certificate.csv").read_bytes(), (out / "trace.csv").read_bytes())
            )
    assert all(o == outputs[0] for o in outputs)
    print("[acceptance] C8 byte-identical CSVs across reruns and OCM_THREADS in {1,4}: PASS")
