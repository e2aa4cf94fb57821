"""Expression trees for nonlinear differential operators.

A system of K equations is described by K expressions over spatial
coordinates ``x1..xn`` and jet slots ``D(uj,(a1,...,an))``.  A jet slot
stands for the value of the derivative ``D^alpha u_j`` that an
approximant supplies at a point; a bare ``uj`` abbreviates the
zeroth-order slot ``D(uj,(0,...,0))``.  Evaluation therefore never
differentiates anything: it reads derivative values out of a jet vector.

A ``PdeSystem`` compiles each component once, when it is built, in one
walk of its tree: into an evaluator with every slot resolved to its row
of the jet vector, and into ``slot_degrees``, the degree of the
component as a polynomial in each slot it reads.  Only this module
knows the node classes.  There is one way to evaluate,
``eval_component_batch``, vectorised over points.

Grammar (whitespace insignificant, one expression per line or ``;``):

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := atom [ "^" integer ] | "-" factor
    atom   := number | "x" index | "u" index
            | "D(" "u" index "," "(" index { "," index } ")" ")"
            | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "log" | "abs" | "sqrt"

Multi-indices carry exactly one entry per spatial axis.  ``print_system``
emits canonical text that re-parses to the identical tree.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

import numpy as np

__all__ = [
    "Const",
    "Coord",
    "Jet",
    "Unary",
    "Binary",
    "Power",
    "Expr",
    "PdeSystem",
    "ParseError",
    "multi_indices",
    "multi_factorial",
    "parse_system",
    "parse_expr",
    "parse_rhs",
    "print_expr",
    "print_system",
    "eval_component_batch",
]

UNARY_FUNCS = ("sin", "cos", "exp", "log", "abs", "sqrt")


class ParseError(ValueError):
    """Source text rejected; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Coord:
    axis: int  # 1-based


@dataclass(frozen=True)
class Jet:
    comp: int  # 1-based unknown index
    alpha: tuple[int, ...]


@dataclass(frozen=True)
class Unary:
    op: str  # one of UNARY_FUNCS or "neg"
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Union[Const, Coord, Jet, Unary, Binary, Power]


@lru_cache(maxsize=None)
def multi_indices(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of order <= m in n variables, lexicographic."""
    out = []

    def rec(prefix, budget):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], budget - k)

    # lexicographic means ordering by the tuple itself, not by total order
    rec([], m)
    out.sort()
    return tuple(out)


def multi_factorial(alpha: tuple[int, ...]) -> int:
    f = 1
    for a in alpha:
        f *= math.factorial(a)
    return f


@dataclass(frozen=True)
class PdeSystem:
    """A parsed K-equation operator of order at most m in n variables.

    Each component is compiled once, when the system is built, into its
    evaluator and ``slot_degrees[i]``: every (comp, alpha) slot it reads,
    mapped to its degree in that slot (_compile).  Neither is part of the
    system's equality, hash or repr.
    """

    n: int
    K: int
    m: int
    components: tuple[Expr, ...]
    _evaluators: tuple[Callable, ...] = field(init=False, repr=False, compare=False)
    slot_degrees: tuple[dict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        compiled = [_compile(c, self) for c in self.components]
        object.__setattr__(self, "_evaluators", tuple(f for f, _ in compiled))
        object.__setattr__(self, "slot_degrees", tuple(d for _, d in compiled))

    @property
    def alphas(self) -> tuple[tuple[int, ...], ...]:
        return multi_indices(self.n, self.m)

    @property
    def M(self) -> int:
        return self.K * len(self.alphas)

    def slot(self, comp: int, alpha: tuple[int, ...]) -> int:
        """Flat index of jet slot (comp, alpha) in a jet vector."""
        return (comp - 1) * len(self.alphas) + self.alphas.index(tuple(alpha))


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<sep>[;\n])"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<sym>[()+\-*/^,])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | sym | sep | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = mo.lastgroup
        lexeme = mo.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        if kind == "sep" and lexeme == "\n":
            line += 1
            col = 1
        else:
            col += len(lexeme)
        pos = mo.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int, K: int, m: int):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.K = K
        self.m = m

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def err(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            self.err(f"expected {sym!r}, found {tok.text!r}" if tok.text else f"expected {sym!r}")
        return self.next()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.next().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.next().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.next()
            return Unary("neg", self.factor())
        node = self.atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            self.next()
            node = Power(node, self.integer("exponent"))
        return node

    def integer(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "num":
            self.err(f"{what} must be a nonnegative integer")
        val = float(tok.text)
        if val != int(val) or int(val) < 0:
            self.err(f"{what} must be a nonnegative integer", tok)
        self.next()
        return int(val)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            node = self.expr()
            self.expect_sym(")")
            return node
        if tok.kind == "name":
            return self.named(tok)
        self.err(f"expected a value, found {tok.text!r}" if tok.text else "unexpected end of input")

    def named(self, tok: _Token) -> Expr:
        mo = re.fullmatch(r"([A-Za-z]+)(\d*)", tok.text)
        word, digits = mo.group(1), mo.group(2)
        if word in UNARY_FUNCS and not digits:
            self.next()
            self.expect_sym("(")
            node = self.expr()
            self.expect_sym(")")
            return Unary(word, node)
        if word == "D" and not digits:
            self.next()
            return self.derivative(tok)
        if word == "x" and digits:
            axis = int(digits)
            if not (1 <= axis <= self.n):
                self.err(f"coordinate index {axis} out of range 1..{self.n}", tok)
            self.next()
            return Coord(axis)
        if word == "u" and digits:
            comp = int(digits)
            if not (1 <= comp <= self.K):
                self.err(f"unknown u{comp}: component index out of range 1..{self.K}", tok)
            self.next()
            return Jet(comp, (0,) * self.n)
        self.err(f"unknown identifier {tok.text!r}", tok)

    def derivative(self, dtok: _Token) -> Expr:
        self.expect_sym("(")
        utok = self.peek()
        if utok.kind != "name" or not re.fullmatch(r"u\d+", utok.text):
            self.err("expected u<index> inside D(...)")
        comp = int(utok.text[1:])
        if not (1 <= comp <= self.K):
            self.err(f"unknown u{comp}: component index out of range 1..{self.K}", utok)
        self.next()
        self.expect_sym(",")
        self.expect_sym("(")
        alpha = [self.integer("multi-index entry")]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            alpha.append(self.integer("multi-index entry"))
        self.expect_sym(")")
        self.expect_sym(")")
        if len(alpha) != self.n:
            self.err(f"multi-index has {len(alpha)} entries, expected {self.n}", dtok)
        if sum(alpha) > self.m:
            self.err(f"derivative order {sum(alpha)} exceeds m={self.m}", dtok)
        return Jet(comp, tuple(alpha))


def parse_expr(text: str, n: int, K: int, m: int) -> Expr:
    """Parse a single expression."""
    parser = _Parser(_tokenize(text), n, K, m)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.err(f"unexpected trailing input {tok.text!r}", tok)
    return node


def parse_rhs(text: str, n: int) -> Expr:
    """Parse a right-hand-side expression in the coordinates only."""
    return parse_expr(text, n, K=0, m=0)


def parse_system(text: str, n: int, K: int, m: int) -> PdeSystem:
    """Parse K newline- or semicolon-separated component expressions."""
    if n < 1 or K < 1 or m < 0:
        raise ValueError("need n >= 1, K >= 1, m >= 0")
    tokens = _tokenize(text)
    parser = _Parser(tokens, n, K, m)
    components = []
    while parser.peek().kind == "sep":
        parser.next()
    while parser.peek().kind != "end":
        components.append(parser.expr())
        while parser.peek().kind == "sep":
            parser.next()
    if len(components) != K:
        tok = tokens[-1]
        raise ParseError(f"found {len(components)} expressions, expected K={K}", tok.line, tok.col)
    return PdeSystem(n=n, K=K, m=m, components=tuple(components))


# ---------------------------------------------------------------------------
# canonical printer

def _wrap_if(cond: bool, s: str) -> str:
    return f"({s})" if cond else s


def print_expr(tree: Expr) -> str:
    if isinstance(tree, Const):
        v = tree.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(tree, Coord):
        return f"x{tree.axis}"
    if isinstance(tree, Jet):
        if all(a == 0 for a in tree.alpha):
            return f"u{tree.comp}"
        return f"D(u{tree.comp},({','.join(str(a) for a in tree.alpha)}))"
    if isinstance(tree, Unary):
        if tree.op == "neg":
            inner = print_expr(tree.arg)
            return "-" + _wrap_if(isinstance(tree.arg, Binary), inner)
        return f"{tree.op}({print_expr(tree.arg)})"
    if isinstance(tree, Power):
        base = print_expr(tree.base)
        tight = isinstance(tree.base, (Const, Coord, Jet)) or (
            isinstance(tree.base, Unary) and tree.base.op != "neg"
        )
        return f"{_wrap_if(not tight, base)}^{tree.exponent}"
    if isinstance(tree, Binary):
        left = _wrap_if(isinstance(tree.left, Binary), print_expr(tree.left))
        right = _wrap_if(isinstance(tree.right, Binary), print_expr(tree.right))
        return f"{left} {tree.op} {right}"
    raise TypeError(f"not an expression node: {tree!r}")


def print_system(system: PdeSystem) -> str:
    return "\n".join(print_expr(c) for c in system.components)


# ---------------------------------------------------------------------------
# evaluation

def eval_component_batch(system: PdeSystem, comp_index: int, X: np.ndarray, XI: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of one component over S points.

    X has shape (n, S) and XI shape (M, S).  Domain violations yield
    non-finite entries instead of raising; callers mask them.  The result
    is a fresh (S,) array that the caller may overwrite, made with one
    allocation: a constant is broadcast into it, a bare coordinate or slot
    is copied out of X or XI, and anything else is already the fresh
    output of its last operation.
    """
    with np.errstate(all="ignore"):
        out = system._evaluators[comp_index](X, XI)
    if np.ndim(out) == 0:
        return np.full(X.shape[1], out, dtype=float)
    if out.base is None and out.dtype == float:
        return out
    return out.astype(float)


_FUNCS = {
    "neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
    "log": lambda v: np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), np.nan),
    "sqrt": lambda v: np.where(v >= 0, np.sqrt(np.abs(v)), np.nan),
}
# op -> (operation, degree of the result in a slot from the operands' degrees)
_BINARY = {
    "+": (operator.add, max),
    "-": (operator.sub, max),
    "*": (operator.mul, operator.add),
    "/": (lambda a, b: np.where(b != 0, a / np.where(b != 0, b, 1.0), np.nan),
          lambda a, b: None if b else a),
}


def _compile(node: Expr, system: PdeSystem) -> tuple[Callable, dict]:
    """One walk of a tree: its evaluator (X, XI) -> values, with every slot
    resolved to its row of XI, and its degree in each slot it reads.

    A slot has degree 1 in itself and 0 in anything that does not read
    it; negation keeps a degree and any other function makes a nonzero
    one None; ``+``/``-`` take the max, ``*`` the sum, ``^k`` multiplies
    by k, and ``/`` keeps the numerator's degree only over a denominator
    of degree 0.
    """
    if isinstance(node, Const):
        c = np.float64(node.value)
        return (lambda X, XI: c), {}
    if isinstance(node, Coord):
        axis = node.axis - 1
        return (lambda X, XI: X[axis]), {}
    if isinstance(node, Jet):
        row = system.slot(node.comp, node.alpha)
        return (lambda X, XI: XI[row]), {(node.comp, node.alpha): 1}
    if isinstance(node, Unary):
        (f, deg), func = _compile(node.arg, system), _FUNCS[node.op]
        if node.op != "neg":
            deg = {s: 0 if d == 0 else None for s, d in deg.items()}
        return (lambda X, XI: func(f(X, XI))), deg
    if isinstance(node, Power):
        (f, deg), k = _compile(node.base, system), node.exponent
        return (lambda X, XI: f(X, XI) ** k), {s: d if d is None else d * k
                                                for s, d in deg.items()}
    if isinstance(node, Binary):
        (fa, da), (fb, db) = _compile(node.left, system), _compile(node.right, system)
        op, degree = _BINARY[node.op]
        pairs = {s: (da.get(s, 0), db.get(s, 0)) for s in da | db}
        return (lambda X, XI: op(fa(X, XI), fb(X, XI))), {
            s: None if None in ab else degree(*ab) for s, ab in pairs.items()}
    raise TypeError(f"not an expression node: {node!r}")
