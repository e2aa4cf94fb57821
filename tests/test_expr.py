"""Parser, printer and evaluator tests for the operator language."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ocm.expr import (
    UNARY_FUNCS,
    Binary,
    Const,
    Coord,
    Jet,
    ParseError,
    PdeSystem,
    Power,
    Unary,
    eval_component_batch,
    multi_indices,
    parse_expr,
    parse_system,
    print_expr,
    print_system,
)
from ocm.approx import PiecewisePoly
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
    with pytest.raises(ParseError) as exc:
        parse_expr("D(u1,(1,1))", 1, 1, 2)
    assert "2 entries, expected 1" in str(exc.value)
    assert exc.value.line == 1 and exc.value.col == 1


def test_parse_expression_count_must_equal_k():
    for text, found in [("u1", 1), ("u1; u2; u1 + u2", 3), ("u1\n\nu2\nu1", 3), ("", 0)]:
        with pytest.raises(ParseError, match=f"found {found} expressions, expected K=2") as exc:
            parse_system(text, 1, 2, 0)
        assert exc.value.line >= 1 and exc.value.col >= 1


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


def _eval_at(system, x, xi):
    """Every component of system at the one point x with jet vector xi."""
    X, XI = np.reshape(x, (-1, 1)), np.reshape(xi, (-1, 1))
    return tuple(float(eval_component_batch(system, i, X, XI)[0]) for i in range(system.K))


def test_eval_projection():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    assert _eval_at(sys_, (0.5,), (7.0, 0.45)) == (0.45,)


def test_eval_square_plus_zeroth():
    sys_ = parse_system("D(u1,(1))^2 + u1", 1, 1, 1)
    assert _eval_at(sys_, (0.0,), (3.0, 0.0)) == (3.0,)


def test_eval_sine_against_library():
    sys_ = parse_system("sin(u1)", 1, 1, 0)
    (val,) = _eval_at(sys_, (0.0,), (math.pi / 2,))
    assert abs(val - 1.0) <= 1e-12


def test_eval_deterministic_bitwise():
    sys_ = parse_system("sin(u1) * exp(x1) / (u1 + 2)", 1, 1, 0)
    a = _eval_at(sys_, (0.3,), (0.7,))
    b = _eval_at(sys_, (0.3,), (0.7,))
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
    # an undefined log, division or sqrt gives a non-finite entry, not an
    # error; overflow is one more way for a component to come out non-finite
    for text, u in [("log(u1)", -1.0), ("1 / u1", 0.0), ("sqrt(u1)", -4.0),
                    ("exp(u1)", 1000.0), ("u1^3", 1e200), ("u1 * u1", 1e200)]:
        (val,) = _eval_at(parse_system(text, 1, 1, 0), (0.0,), (u,))
        assert not math.isfinite(val), text


def _reference_eval(node, X, XI, system):
    """The operator language's meaning, walked node by node on every call."""
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Coord):
        return X[node.axis - 1]
    if isinstance(node, Jet):
        return XI[system.slot(node.comp, node.alpha)]
    if isinstance(node, Unary):
        v = _reference_eval(node.arg, X, XI, system)
        if node.op == "neg":
            return -v
        if node.op == "log":
            return np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), np.nan)
        if node.op == "sqrt":
            return np.where(v >= 0, np.sqrt(np.abs(v)), np.nan)
        return getattr(np, node.op)(v)
    if isinstance(node, Power):
        return _reference_eval(node.base, X, XI, system) ** node.exponent
    a = _reference_eval(node.left, X, XI, system)
    b = _reference_eval(node.right, X, XI, system)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return np.where(b != 0, a / np.where(b != 0, b, 1.0), np.nan)


def _reference_degree(node, slot):
    """Degree of a tree as a polynomial in one slot, None under a function
    other than negation or in a denominator."""
    if isinstance(node, Jet):
        return int((node.comp, node.alpha) == slot)
    if isinstance(node, (Const, Coord)):
        return 0
    if isinstance(node, Unary):
        d = _reference_degree(node.arg, slot)
        return d if node.op == "neg" or d == 0 else None
    if isinstance(node, Power):
        d = _reference_degree(node.base, slot)
        return None if d is None else d * node.exponent
    a, b = _reference_degree(node.left, slot), _reference_degree(node.right, slot)
    if a is None or b is None:
        return None
    if node.op in "+-":
        return max(a, b)
    return a + b if node.op == "*" else (a if b == 0 else None)


_ALPHAS = multi_indices(2, 1)
# domain edges of log, sqrt and division (+-0, tiny and negative values),
# overflow of exp and powers, and plain values
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e-300, 710.0, 1e200, -1e200, 3.0]
_POINTS = 12
_TREES = st.recursive(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300, 1e300]).map(Const),
        st.integers(1, 2).map(Coord),
        st.builds(Jet, st.integers(1, 2), st.sampled_from(_ALPHAS)),
    ),
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(UNARY_FUNCS + ("neg",)), sub),
        st.builds(Binary, st.sampled_from("+-*/"), sub, sub),
        st.builds(Power, sub, st.integers(0, 4)),
    ),
    max_leaves=10,
)
_ROWS = st.lists(st.lists(st.sampled_from(_EDGE_VALUES), min_size=_POINTS, max_size=_POINTS),
                 min_size=2 + 2 * len(_ALPHAS), max_size=2 + 2 * len(_ALPHAS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=_TREES, rows=_ROWS)
@example(tree=Unary("log", Jet(1, (0, 0))), rows=[_EDGE_VALUES] * 8)
@example(tree=Unary("sqrt", Unary("neg", Coord(1))), rows=[_EDGE_VALUES] * 8)
@example(tree=Binary("/", Coord(2), Binary("-", Jet(2, (1, 0)), Coord(1))),
         rows=[_EDGE_VALUES, _EDGE_VALUES[::-1]] * 4)
def test_compiled_component_matches_a_tree_walk(tree, rows):
    # eval_component_batch runs the evaluator each component compiles to when
    # its system is built; it must give the tree walk's bytes, nan, inf and
    # signed zeros in place, and the compiled degrees the walk's degrees
    system = PdeSystem(n=2, K=2, m=1, components=(tree, Const(0.0)))
    points = np.asarray(rows)
    X, XI = points[:2], points[2:]
    got = eval_component_batch(system, 0, X, XI)
    with np.errstate(all="ignore"):
        want = np.broadcast_to(_reference_eval(tree, X, XI, system), (_POINTS,)).astype(float)
    assert got.tobytes() == want.tobytes()
    degrees = system.slot_degrees[0]
    for slot in [(j, alpha) for j in (1, 2) for alpha in _ALPHAS]:
        assert degrees.get(slot, 0) == _reference_degree(tree, slot), slot
    assert not system.slot_degrees[1]


@pytest.mark.parametrize("text, K", [(t, 1) for t in CORPUS]
                         + [("u1 / u2 + sin(x1)\nexp(u2)^3 - log(u1 * x1)", 2)])
def test_eval_operator_is_a_batch_of_one(text, K):
    # each point evaluated alone equals its column of one batch, bit for bit
    sys_ = parse_system(text, 1, K, 2)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.1, 2.0, (1, 40))
    XI = rng.uniform(-2.0, 2.0, (sys_.M, 40))
    XI[0] = np.abs(XI[0]) + 0.1  # u1 > 0, so log(u1 * x1) is defined
    batch = np.stack([eval_component_batch(sys_, i, X, XI) for i in range(K)])
    assert np.all(np.isfinite(batch))
    for s in range(X.shape[1]):
        assert _eval_at(sys_, X[:, s], XI[:, s]) == tuple(batch[:, s])


# Pointwise operator application: operator_image on a lattice through the
# point.  An off-skeleton node carries T(x, D)u, a node on the skeleton is
# masked, and a node outside the domain or a mismatched jet layout raises.

def _single_piece(coeffs, center=0.5, box=Box((0.0,), (1.0,))):
    """The one piece on box with Taylor coefficients coeffs (A,) about center."""
    alphas = multi_indices(1, len(coeffs) - 1)
    return PiecewisePoly(build_partition(box, 1), alphas, np.reshape(coeffs, (1, -1, 1)),
                         np.asarray([[center]]))


def test_apply_operator_derivative_of_line():
    # u(x) = 0.45 (x - 0.5) on its cell; T u = u'
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece([0.0, 0.45])
    (img,) = operator_image(sys_, u, ((0.47,),))
    assert not img.mask_array().any()
    assert img.values[0] == pytest.approx(0.45, abs=1e-12)


def test_apply_operator_on_skeleton_is_undefined():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece([0.0, 0.45])
    (img,) = operator_image(sys_, u, ((0.0, 1.0),))
    assert img.mask_array().all()


def test_apply_operator_outside_domain():
    sys_ = parse_system("D(u1,(1))", 1, 1, 1)
    u = _single_piece([0.0, 0.45])
    with pytest.raises(ValueError):
        operator_image(sys_, u, ((2.0,),))


def test_apply_operator_second_order():
    # u(x) = x^2 on one cell covering x=1; T u = u'' + u = 2 + 1
    sys_ = parse_system("D(u1,(2)) + u1", 1, 1, 2)
    # Taylor of x^2 at center 1: 1 + 2(x-1) + (x-1)^2
    u = _single_piece([1.0, 2.0, 1.0], center=1.0, box=Box((0.0,), (2.0,)))
    (img,) = operator_image(sys_, u, ((1.0,),))
    assert img.values[0] == pytest.approx(3.0, abs=1e-12)


def test_apply_operator_matches_polynomial_oracle():
    # oracle: numpy poly derivative of the 1-D piece, 1000 random pairs
    rng = np.random.default_rng(7)
    sys_ = parse_system("D(u1,(2)) + D(u1,(1))^2 + u1", 1, 1, 2)
    for _ in range(1000):
        xi = [rng.uniform(-2, 2) for _ in range(3)]
        center = rng.uniform(0.2, 0.8)
        # standard-basis coefficients of P(t) = c0 + c1 (t - x0) + c2 (t - x0)^2
        c = [xi[0], xi[1], xi[2] / 2.0]
        u = _single_piece(c, center=center)
        x = float(rng.uniform(0.01, 0.99))
        poly = np.polynomial.Polynomial(c, domain=[-1, 1], window=[-1, 1])
        shifted = poly(np.polynomial.Polynomial([-center, 1.0]))
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
    u = _single_piece([0.0, 0.45])
    with pytest.raises(ValueError):
        operator_image(sys2, u, ((0.5,),))
    # nor can a point with the wrong number of coordinates
    with pytest.raises(ValueError, match="axes"):
        operator_image(parse_system("D(u1,(1))", 1, 1, 1), u, ((0.5,), (0.5,)))
