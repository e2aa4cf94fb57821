"""Parser, printer and evaluator tests for the operator language."""

import math

import numpy as np
import pytest

from ocm.expr import (
    Binary,
    Const,
    EvalDomainError,
    Jet,
    ParseError,
    Power,
    eval_component_batch,
    eval_operator,
    multi_indices,
    parse_expr,
    parse_system,
    print_expr,
    print_system,
)
from ocm.approx import taylor_poly
from ocm.baire import operator_image
from ocm.domain import Box, build_partition

# 20 expressions exercising every production (n=1, K=1, m=2 context)
CORPUS = [
    "D(u1,(1))",
    "D(u1,(1))^2 + u1",
    "u1 + (2 * x1)",
    "sin(u1)",
    "cos(x1) * exp(u1)",
    "log(x1 + 2)",
    "abs(u1 - x1)",
    "sqrt(x1)",
    "-u1",
    "u1 / x1",
    "(u1 + x1) * (u1 - x1)",
    "D(u1,(2)) + D(u1,(1)) + u1",
    "2",
    "2.5 * x1^3",
    "x1^0",
    "-(u1 + 1)",
    "u1 * u1 * u1",
    "1 - -u1",
    "sin(cos(exp(u1)))",
    "D(u1,(1)) * D(u1,(1)) - 1",
]


def test_multi_indices_lexicographic():
    assert multi_indices(1, 2) == ((0,), (1,), (2,))
    assert multi_indices(2, 1) == ((0, 0), (0, 1), (1, 0))
    assert multi_indices(2, 2) == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def test_parse_single_jet_node():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    assert sys_.components == (Jet(1, (1,)),)
    assert sys_.M == 2  # alphas (0,), (1,)


def test_parse_square_plus_zeroth():
    # hand parse: plus(pow(jet(1,(1)), 2), jet(1,(0)))
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    expected = Binary("+", Power(Jet(1, (1,)), 2), Jet(1, (0,)))
    assert sys_.components[0] == expected


def test_parse_order_exceeds_m():
    with pytest.raises(ParseError) as exc:
        parse_system("D(u2,(3))", 1, 2, 2)
    assert "exceeds m=2" in str(exc.value)
    assert exc.value.line == 1 and exc.value.col >= 1


def test_parse_bad_component_index():
    with pytest.raises(ParseError) as exc:
        parse_expr("u2", 1, 1, 1)
    assert "out of range 1..1" in str(exc.value)
    assert exc.value.col == 1


def test_parse_bad_coordinate_index():
    with pytest.raises(ParseError) as exc:
        parse_expr("x2 + 1", 1, 1, 1)
    assert exc.value.line == 1 and exc.value.col == 1


def test_parse_multi_index_arity():
    with pytest.raises(ParseError):
        parse_expr("D(u1,(1,1))", 1, 1, 2)


def test_parse_error_second_line():
    with pytest.raises(ParseError) as exc:
        parse_system("D(u1,(1))\nD(u2,(2))", 1, 2, 1)
    assert exc.value.line == 2


def test_parse_syntax_errors_have_positions():
    for text in ["u1 +", "(u1", "2 ^ u1", "foo(u1)", "x1^2.5", "u1 ) 3"]:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, 1, 1, 1)
        assert exc.value.line >= 1 and exc.value.col >= 1


def test_canonical_print_matches_expected():
    assert print_expr(parse_expr("D(u1,(1))", 1, 1, 1)) == "D(u1,(1))"
    assert print_expr(parse_expr("u1 + 2*x1", 1, 1, 1)) == "u1 + (2 * x1)"


def test_round_trip_on_corpus():
    for text in CORPUS:
        tree = parse_expr(text, 1, 1, 2)
        printed = print_expr(tree)
        assert parse_expr(printed, 1, 1, 2) == tree, text


def test_system_round_trip():
    sys_ = parse_system("D(u1,(1))\nu2 + D(u1,(1))", 1, 2, 1)
    again = parse_system(print_system(sys_), 1, 2, 1)
    assert again.components == sys_.components
    # separators before the first expression are skipped
    for lead in ("; ", "\n\n", ";\n ;"):
        assert parse_system(lead + print_system(sys_), 1, 2, 1).components == sys_.components


def test_eval_projection():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    assert eval_operator(sys_, (0.5,), (7.0, 0.45)) == (0.45,)


def test_eval_square_plus_zeroth():
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    assert eval_operator(sys_, (0.0,), (3.0, 0.0)) == (3.0,)


def test_eval_sine_against_library():
    sys_ = parse_system("sin(u1)", 1, 1, 0)
    (val,) = eval_operator(sys_, (0.0,), (math.pi / 2,))
    assert abs(val - 1.0) <= 1e-12


def test_eval_deterministic_bitwise():
    sys_ = parse_system("sin(u1) * exp(x1) / (u1 + 2)", 1, 1, 0)
    a = eval_operator(sys_, (0.3,), (0.7,))
    b = eval_operator(sys_, (0.3,), (0.7,))
    assert a == b


@pytest.mark.parametrize("text", ["u1", "x1", "3", "D(u1,(1))", "-u1"])
def test_batch_result_is_fresh(text):
    # callers subtract in place, so a bare slot or coordinate must not hand
    # back a view of X or XI, and a constant must still give one entry per point
    sys_ = parse_system(text, 1, 1, 1)
    X = np.asarray([[0.5, -1.0, 2.0]])
    XI = np.asarray([[7.0, 8.0, 9.0], [0.1, 0.2, 0.3]])
    X0, XI0 = X.copy(), XI.copy()
    out = eval_component_batch(sys_, 0, X, XI)
    assert out.shape == (3,) and out.dtype == np.float64
    expected = out.copy()
    out -= 100.0
    assert np.array_equal(X, X0) and np.array_equal(XI, XI0)
    assert np.array_equal(eval_component_batch(sys_, 0, X, XI), expected)
    # strided rows, as callers pass X = points.T, copy out the same way
    Xt = np.asarray([[0.5], [-1.0], [2.0]]).T
    out = eval_component_batch(sys_, 0, Xt, XI)
    out -= 100.0
    assert np.array_equal(Xt, X0)


def test_eval_domain_errors():
    log_sys = parse_system("log(u1)", 1, 1, 0)
    with pytest.raises(EvalDomainError):
        eval_operator(log_sys, (0.0,), (-1.0,))
    div_sys = parse_system("1 / u1", 1, 1, 0)
    with pytest.raises(EvalDomainError):
        eval_operator(div_sys, (0.0,), (0.0,))
    sqrt_sys = parse_system("sqrt(u1)", 1, 1, 0)
    with pytest.raises(EvalDomainError):
        eval_operator(sqrt_sys, (0.0,), (-4.0,))
    # overflow is one more way for a component to come out non-finite
    for text, u in [("exp(u1)", 1000.0), ("u1^3", 1e200), ("u1 * u1", 1e200)]:
        with pytest.raises(EvalDomainError):
            eval_operator(parse_system(text, 1, 1, 0), (0.0,), (u,))


@pytest.mark.parametrize("text, K", [(t, 1) for t in CORPUS]
                         + [("u1 / u2 + sin(x1)\nexp(u2)^3 - log(u1 * x1)", 2)])
def test_eval_operator_is_a_batch_of_one(text, K):
    # each point's eval_operator equals its column of one batch, bit for bit
    sys_ = parse_system(text, 1, K, 2)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 2.0, (1, 40))
    XI = rng.uniform(-2.0, 2.0, (sys_.M, 40))
    XI[0] = np.abs(XI[0]) + 0.1  # u1 > 0, so log(u1 * x1) is defined
    batch = np.stack([eval_component_batch(sys_, i, X, XI) for i in range(K)])
    assert np.all(np.isfinite(batch))
    for s in range(X.shape[1]):
        assert eval_operator(sys_, X[:, s], XI[:, s]) == tuple(batch[:, s])


def test_eval_rejects_nonfinite_inputs():
    sys_ = parse_system("u1", 1, 1, 0)
    with pytest.raises(ValueError):
        eval_operator(sys_, (float("inf"),), (1.0,))


# Pointwise operator application: operator_image on a lattice through the
# point.  An off-skeleton node carries T(x, D)u, a node on the skeleton is
# masked, and a node outside the domain or a mismatched jet layout raises.

def _single_piece(slope_jet, box=Box((0.0,), (1.0,))):
    return taylor_poly(build_partition(box, 1), [(0.5,)], [slope_jet])


def test_apply_operator_derivative_of_line():
    # u(x) = 0.45 (x - 0.5) on its cell; T u = u'
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece({(1, (0,)): 0.0, (1, (1,)): 0.45})
    (img,) = operator_image(sys_, u, ((0.47,),))
    assert not img.mask_array().any()
    assert img.values[0] == pytest.approx(0.45, abs=1e-12)


def test_apply_operator_on_skeleton_is_undefined():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece({(1, (0,)): 0.0, (1, (1,)): 0.45})
    (img,) = operator_image(sys_, u, ((0.0, 1.0),))
    assert img.mask_array().all()


def test_apply_operator_outside_domain():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece({(1, (0,)): 0.0, (1, (1,)): 0.45})
    with pytest.raises(ValueError):
        operator_image(sys_, u, ((2.0,),))


def test_apply_operator_second_order():
    # u(x) = x^2 on one cell covering x=1; T u = u'' + u = 2 + 1
    sys_ = parse_system("D(u1,(2)) + u1", 1, 1, 2)
    partition = build_partition(Box((0.0,), (2.0,)), 1)
    # Taylor of x^2 at center 1: 1 + 2(x-1) + (x-1)^2, so jet (1, 2, 2)
    u = taylor_poly(partition, [(1.0,)], [{(1, (0,)): 1.0, (1, (1,)): 2.0, (1, (2,)): 2.0}])
    (img,) = operator_image(sys_, u, ((1.0,),))
    assert img.values[0] == pytest.approx(3.0, abs=1e-12)


def test_apply_operator_matches_polynomial_oracle():
    # oracle: numpy poly derivative of the 1-D piece, 1000 random pairs
    rng = np.random.default_rng(7)
    sys_ = parse_system("D(u1,(2)) + D(u1,(1))^2 + u1", 1, 1, 2)
    partition = build_partition(Box((0.0,), (1.0,)), 1)
    for _ in range(1000):
        xi = {(1, (0,)): rng.uniform(-2, 2), (1, (1,)): rng.uniform(-2, 2), (1, (2,)): rng.uniform(-2, 2)}
        center = (rng.uniform(0.2, 0.8),)
        u = taylor_poly(partition, [center], [xi])
        x = float(rng.uniform(0.01, 0.99))
        # standard-basis coefficients of P(t) = c0 + c1 (t - x0) + c2 (t - x0)^2
        c = [xi[(1, (0,))], xi[(1, (1,))], xi[(1, (2,))] / 2.0]
        poly = np.polynomial.Polynomial(c, domain=[-1, 1], window=[-1, 1])
        shifted = poly(np.polynomial.Polynomial([-center[0], 1.0]))
        p0 = shifted(x)
        p1 = shifted.deriv(1)(x)
        p2 = shifted.deriv(2)(x)
        expected = p2 + p1**2 + p0
        (img,) = operator_image(sys_, u, ((x,),))
        got = img.values[0]
        assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


def test_apply_operator_rejects_mismatched_jet_layout():
    # approximant built for m=1 cannot feed an order-2 operator
    sys2 = parse_system("D(u1,(2)) + u1", 1, 1, 2)
    u = _single_piece({(1, (0,)): 0.0, (1, (1,)): 0.45})
    with pytest.raises(ValueError):
        operator_image(sys2, u, ((0.5,),))
    # nor can a point with the wrong number of coordinates
    with pytest.raises(ValueError, match="axes"):
        operator_image(parse_system("D(u1,(1))", 1, 1, 1), u, ((0.5,), (0.5,)))
