"""Expression frontend: parsing, value and one-sided slope lowering.

Grammar over the single variable t (Python-style precedence, ^ is
right-associative and binds tighter than unary minus):

    expr    := term  (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | 't' | 'e' | 'pi'
             | ('abs'|'ln'|'exp'|'sqrt') '(' expr ')'
             | 'max' '(' expr (',' expr)+ ')'
             | '(' expr ')'

The constants e and pi parse to numbers.  Nodes carry exact source spans
for error reporting; spans are ignored by structural equality.

A parsed tree is lowered once into nested closures, so no evaluation
walks the tree: ``lower_value`` gives t -> value, and ``_lower_jet`` gives
t -> (value, f'-, f'+) with closed-form one-sided slopes, variable
exponents included.  At an abs/max kink each side picks its branch;
sqrt, ln and ^ produce signed infinities where the tangent is vertical.
The fused walk serves both sides at once and is the function's jet
(``convex_core.Jet``), which the integrator calls once per point; at the
few points where only a side-specific check can decide, a one-sided walk
of the same lowering, chosen when lowering, serves each side.  Trees
nest at most MAX_DEPTH levels (parentheses and operator chains count),
far from Python's recursion limit.

``_proves_convex`` tries to prove a tree convex on an interval by
composition rules; what it cannot prove is left to the sampled check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

from .convex_core import ConvexFunction, Interval
from .errors import DomainError, ExpressionError, ExtendedArithmeticError
from .extreal import INF, ensure_extended

CONSTANTS = {"e": math.e, "pi": math.pi}
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"
_UNARY_FUNCS = ("abs", "ln", "exp", "sqrt")


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False)


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {src[pos]!r}", source=src, position=pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.take()
        raise ExpressionError(f"expected {text!r}", source=self.src, position=tok.pos)

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected trailing input {tok.text!r}",
                                  source=self.src, position=tok.pos)
        height, level = 1, [node]  # counted level by level: chains nest too
        while level := [c for n in level for c in _children(n)]:
            height += 1
        if height > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, source=self.src)
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            op = self.take()
            right = self.term()
            node = BinOp(op.text, node, right, span=(node.span[0], right.span[1]))
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.take()
            right = self.factor()
            node = BinOp(op.text, node, right, span=(node.span[0], right.span[1]))
        return node

    def factor(self):
        self.depth += 1  # parentheses, arguments, unary minus and exponents all nest here
        if self.depth > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, source=self.src, position=self.peek().pos)
        if self.at_op("-"):
            op = self.take()
            operand = self.factor()
            node = Neg(operand, span=(op.pos, operand.span[1]))
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        if self.at_op("^"):
            self.take()
            exponent = self.factor()
            return BinOp("^", base, exponent, span=(base.span[0], exponent.span[1]))
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Num(float(tok.text), span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "ident":
            self.take()
            name = tok.text
            if name == "t":
                return Var(span=(tok.pos, tok.pos + 1))
            if name in CONSTANTS:
                return Num(CONSTANTS[name], span=(tok.pos, tok.pos + len(name)))
            if name in _UNARY_FUNCS or name == "max":
                self.expect("(")
                args = [self.expr()]
                while self.at_op(","):
                    self.take()
                    args.append(self.expr())
                closing = self.expect(")")
                if name != "max" and len(args) != 1:
                    raise ExpressionError(f"{name} takes exactly one argument",
                                          source=self.src, position=tok.pos)
                if name == "max" and len(args) < 2:
                    raise ExpressionError("max takes at least two arguments",
                                          source=self.src, position=tok.pos)
                return Call(name, tuple(args), span=(tok.pos, closing.pos + 1))
            raise ExpressionError(f"unknown identifier {name!r}",
                                  source=self.src, position=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            node = self.expr()
            closing = self.expect(")")
            return replace(node, span=(tok.pos, closing.pos + 1))
        raise ExpressionError("expected a number, 't', a constant, or '('",
                              source=self.src, position=tok.pos)


def parse_expression(src: str):
    """Parse source text into an expression tree (ExpressionError if invalid)."""
    return _Parser(src).parse()


def _children(node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return node.args if isinstance(node, Call) else ()


def _is_constant(node) -> bool:
    return not isinstance(node, Var) and all(_is_constant(c) for c in _children(node))


def _pow_value(u: float, c: float, span) -> float:
    try:
        return math.pow(u, c)
    except OverflowError as exc:
        raise DomainError(f"{u} ^ {c} overflows near position {span[0]}") from exc
    except ValueError as exc:
        raise DomainError(f"{u} ^ {c} undefined near position {span[0]}") from exc


def lower_value(node) -> Callable[[float], float]:
    """Closure t -> value of the tree; raises DomainError outside a
    function's math domain.  Children are evaluated first, left to right."""
    if isinstance(node, Num):
        value = node.value
        return lambda t: value
    if isinstance(node, Var):
        return float
    if isinstance(node, Neg):
        g = lower_value(node.operand)
        return lambda t: -g(t)
    if isinstance(node, Call):
        gs = [lower_value(a) for a in node.args]
        g = gs[0]
        if node.func == "max":
            return lambda t: max([h(t) for h in gs])
        if node.func == "abs":
            return lambda t: abs(g(t))
        if node.func == "exp":
            return lambda t: _exp(g(t), t)
        if node.func == "ln":
            return lambda t: _ln(g(t), t)
        return lambda t: _sqrt(g(t), t)
    left, right = lower_value(node.left), lower_value(node.right)
    if node.op == "+":
        return lambda t: left(t) + right(t)
    if node.op == "-":
        return lambda t: left(t) - right(t)
    if node.op == "*":
        return lambda t: left(t) * right(t)
    if node.op == "/":
        return lambda t: _div(left(t), right(t), t)
    span = node.span
    return lambda t: _pow_value(left(t), right(t), span)


def _exp(u: float, t: float) -> float:
    try:
        return math.exp(u)
    except OverflowError as exc:
        raise DomainError(f"exp overflow at t={t}") from exc


def _ln(u: float, t: float) -> float:
    if u <= 0.0:
        raise DomainError(f"ln of non-positive value {u} at t={t}")
    return math.log(u)


def _sqrt(u: float, t: float) -> float:
    if u < 0.0:
        raise DomainError(f"sqrt of negative value {u} at t={t}")
    return math.sqrt(u)


def _div(u: float, w: float, t: float) -> float:
    if w == 0.0:
        raise DomainError(f"division by zero at t={t}")
    return u / w


class _SidesDiffer(Exception):
    """Only a side-specific check can decide this point: walk each side alone."""


def _power_slope(value: float, u: float, du: float, c: float, dc: float, span) -> float:
    """One side's slope of u^c, whose value is given: (u^c)' = u^c (c' ln u + c u'/u)."""
    if dc != 0.0:
        ensure_extended(dc)
        if u > 0.0:
            return value * (dc * math.log(u) + c * du / u)
        if not u == 0.0:  # u < 0: u^c is undefined on either side
            raise DomainError(f"{u} ^ {c} has no one-sided slope near position {span[0]}")
        if c == 0.0:  # u^c tends to 1 and the c' ln u term decides
            ensure_extended(du)
            return -math.copysign(INF, dc)
    if c == 0.0:
        ensure_extended(du)
        return 0.0
    if c == 1.0:
        return du
    if u == 0.0 and c < 1.0:  # vertical tangent of u^c at u = 0
        ensure_extended(du)
        return math.copysign(INF, c * du) if du != 0.0 else 0.0
    return c * _pow_value(u, c - 1.0, span) * du


def _lower_jet(node, side: int):
    """Closure t -> (value, f'-, f'+): forward-mode differentiation of both
    sides in one walk, resolved per node once.

    Slopes use plain float arithmetic: an undefined form (inf - inf,
    0 * inf) leaves a NaN that the caller rejects.  Only a branch that
    would drop a NaN slope (a comparison, a discarded or sign-only
    operand) checks it on the spot.  Those branches are where the sides
    can part: a NaN slope reaching max, sqrt at 0, ^ at base 0 or exponent
    0 or a raising rule of a variable exponent, and abs of a NaN (whose
    value is a NaN but whose slope rules take the kink branch).  There the
    fused walk, side=0, raises _SidesDiffer; the one-sided walks, side=1
    for f'- and side=2 for f'+, run their own side's check on their own
    slot, triple[side], and return the value that side's rules see.  When
    the fused walk returns, its value is lower_value's and each slot is
    what that side's one-sided walk gives; the other slot of a one-sided
    walk means nothing.
    """
    if isinstance(node, Num):
        triple = (node.value, 0.0, 0.0)
        return lambda t: triple
    if isinstance(node, Var):
        return lambda t: (float(t), 1.0, 1.0)
    if isinstance(node, Neg):
        g = _lower_jet(node.operand, side)

        def neg(t):
            v, dm, dp = g(t)
            return -v, -dm, -dp
        return neg
    if isinstance(node, Call):
        gs = [_lower_jet(a, side) for a in node.args]
        g = gs[0]
        if node.func == "max":
            def max_(t):
                v, dm, dp = g(t)
                if dm != dm or dp != dp:
                    if not side:
                        raise _SidesDiffer
                    ensure_extended((dm, dp)[side - 1])
                for h in gs[1:]:
                    w, wm, wp = h(t)
                    if wm != wm or wp != wp:
                        if not side:
                            raise _SidesDiffer
                        ensure_extended((wm, wp)[side - 1])
                    if w > v:
                        v, dm, dp = w, wm, wp
                    elif w == v:
                        dm, dp = min(dm, wm), max(dp, wp)
                return v, dm, dp
            return max_
        if node.func == "abs":
            def abs_(t):
                u, dm, dp = g(t)
                if u > 0.0:
                    return u, dm, dp
                if u < 0.0:
                    return -u, -dm, -dp
                if u != u and not side:  # a NaN value, but the slope rules take the kink
                    raise _SidesDiffer
                return 0.0, -abs(dm), abs(dp)
            return abs_
        if node.func == "exp":
            def exp_(t):
                u, dm, dp = g(t)
                v = _exp(u, t)
                return v, v * dm, v * dp
            return exp_
        if node.func == "ln":
            def ln_(t):
                u, dm, dp = g(t)
                v, r = _ln(u, t), 1.0 / u
                return v, dm * r, dp * r
            return ln_

        def sqrt_(t):
            u, dm, dp = g(t)
            v = _sqrt(u, t)
            if u == 0.0:
                if not side:
                    raise _SidesDiffer
                d = ensure_extended((dm, dp)[side - 1])
                if d == 0.0:
                    raise DomainError(f"indeterminate one-sided slope of sqrt at t={t}")
                d = math.copysign(INF, d)
                return 0.0, d, d
            r = 0.5 / v
            return v, dm * r, dp * r
        return sqrt_
    left = _lower_jet(node.left, side)
    if node.op == "^":
        span = node.span
        if _is_constant(node.right):
            # slope 0; the slope walk of sqrt(0) would raise where its value does not
            exponent = lower_value(node.right)

            def power(t):
                u, dm, dp = left(t)
                c = exponent(t)
                value = _pow_value(u, c, span)
                if c == 0.0 or u == 0.0:
                    if not side:
                        raise _SidesDiffer
                    d = _power_slope(value, u, (dm, dp)[side - 1], c, 0.0, span)
                    return value, d, d
                if c == 1.0:
                    return value, dm, dp
                k = c * _pow_value(u, c - 1.0, span)
                return value, k * dm, k * dp
            return power
        right = _lower_jet(node.right, side)

        def variable_power(t):
            u, um, up = left(t)
            c, cm, cp = right(t)
            value = _pow_value(u, c, span)
            try:
                return (value, _power_slope(value, u, um, c, cm, span),
                        _power_slope(value, u, up, c, cp, span))
            except (DomainError, ExtendedArithmeticError):
                if not side:
                    raise _SidesDiffer from None
            d = _power_slope(value, u, (um, up)[side - 1], c, (cm, cp)[side - 1], span)
            return value, d, d
        return variable_power
    right = _lower_jet(node.right, side)
    if node.op == "+":
        def add(t):
            u, um, up = left(t)
            w, wm, wp = right(t)
            return u + w, um + wm, up + wp
        return add
    if node.op == "-":
        def sub(t):
            u, um, up = left(t)
            w, wm, wp = right(t)
            return u - w, um - wm, up - wp
        return sub
    if node.op == "*":
        def mul(t):
            u, um, up = left(t)
            w, wm, wp = right(t)
            return u * w, um * w + u * wm, up * w + u * wp
        return mul

    def div(t):
        u, um, up = left(t)
        w, wm, wp = right(t)
        v, ww = _div(u, w, t), w * w
        return v, (um * w - u * wm) / ww, (up * w - u * wp) / ww
    return div


# Convexity proof by composition rules, in the style of disciplined convex
# programming (Grant, Boyd and Ye, 2006).  Each node gets a curvature and an
# enclosure of its values over the interval, rounded outward one ulp per
# inexact operation so that it holds the float evaluation too.  A node
# outside the rules, a range that is not finite or a divisor whose range
# holds 0 leaves the expression unproved, for the sampled check to judge
# with its own messages.
_CONSTANT, _AFFINE, _CONVEX, _CONCAVE = range(4)  # `c and _CONVEX` keeps 0 constant
_FLIPPED = (_CONSTANT, _AFFINE, _CONCAVE, _CONVEX)


class _Unproved(Exception):
    """The rules cannot prove the node's curvature."""


def _proves_convex(node, interval: Interval) -> bool:
    """True when the rules prove the expression convex on the interval."""
    try:
        return _shape(node, (interval.lo, interval.hi))[0] != _CONCAVE
    except (_Unproved, ArithmeticError, ValueError):
        return False


def _out(lo: float, hi: float) -> tuple:
    lo, hi = math.nextafter(lo, -INF), math.nextafter(hi, INF)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _Unproved
    return lo, hi


def _imul(x, y) -> tuple:
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return _out(min(products), max(products))


def _idiv(x, y) -> tuple:
    # the slope of a quotient divides by the divisor squared: keep that in range too
    squares = (y[0] * y[0], y[1] * y[1])
    if y[0] <= 0.0 <= y[1] or min(squares) == 0.0 or max(squares) == INF:
        raise _Unproved
    quotients = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    return _out(min(quotients), max(quotients))


def _is_even(p) -> bool:
    return p[0] == p[1] and p[0] >= 0.0 and p[0] % 2.0 == 0.0


def _ipow(u, p) -> tuple:
    """Range of u^p for u >= 0, where u^p is monotone in u and in p, so
    that the corners bound it; or of |u|^p for an even p."""
    if u[0] < 0.0:
        if not _is_even(p):
            raise _Unproved
        u = (max(0.0, -u[1]), max(-u[0], u[1]))
    corners = [math.pow(x, y) for x in u for y in p]
    return _out(min(corners), max(corners))


def _shape(node, iv: tuple) -> tuple:
    """(curvature, (lo, hi)) of a node over the interval iv."""
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            raise _Unproved
        return _CONSTANT, (node.value, node.value)
    if isinstance(node, Var):
        return _AFFINE, iv
    if isinstance(node, Neg):
        c, (lo, hi) = _shape(node.operand, iv)
        return _FLIPPED[c], (-hi, -lo)
    if isinstance(node, Call):
        return _call_shape(node, iv)
    if node.op in "+-":
        c, x = _shape(node.left, iv)
        d, y = _shape(node.right, iv)
        if node.op == "-":
            d, y = _FLIPPED[d], (-y[1], -y[0])
        r = _out(x[0] + y[0], x[1] + y[1])
        # the float sum can lose a term that varies by less than a millionth of it
        if {c, d} == {_CONVEX, _CONCAVE} or any(
                e != _CONSTANT and z[1] - z[0] < 1e-6 * max(-r[0], r[1])
                for e, z in ((c, x), (d, y))):
            raise _Unproved
        return max(c, d), r
    if node.op == "^":
        return _power_shape(node, iv)
    return _product_shape(node, iv)


def _call_shape(node, iv: tuple) -> tuple:
    """max of convex, abs of affine, exp of convex, ln and sqrt of concave."""
    shapes = [_shape(a, iv) for a in node.args]
    c, (lo, hi) = shapes[0]
    if node.func == "max":
        if any(d == _CONCAVE for d, _ in shapes):
            raise _Unproved
        return (max(d for d, _ in shapes) and _CONVEX), (max(r[0] for _, r in shapes),
                                                         max(r[1] for _, r in shapes))
    if node.func == "abs":
        if c > _AFFINE:
            raise _Unproved
        return (c and _CONVEX), (max(0.0, lo, -hi), max(-lo, hi))
    if node.func == "exp":
        # an underflow to 0 would turn an infinite slope of the argument into 0 * inf
        if c == _CONCAVE or math.exp(lo) == 0.0:
            raise _Unproved
        return (c and _CONVEX), _out(math.exp(lo), math.exp(hi))
    # ln needs u > 0, sqrt u >= 0; sqrt of a constant 0 has the slope 0/0
    positive = node.func == "ln" or c == _CONSTANT
    if c == _CONVEX or not (lo > 0.0 or (lo == 0.0 and not positive)):
        raise _Unproved
    g = math.log if node.func == "ln" else math.sqrt
    return (c and _CONCAVE), _out(g(lo), g(hi))


def _power_shape(node, iv: tuple) -> tuple:
    """u^p with constant p and affine u, or c^u with constant c > 0."""
    c, u = _shape(node.left, iv)
    d, p = _shape(node.right, iv)
    value_range = _ipow(u, p)
    if d == _CONSTANT and c == _AFFINE:
        if (p[0] >= 1.0 and u[0] >= 0.0) or _is_even(p) or (p[1] <= 0.0 and u[0] > 0.0):
            return _CONVEX, value_range
        if p[0] > 0.0 and p[1] < 1.0 and u[0] >= 0.0:
            return _CONCAVE, value_range
    elif c == _CONSTANT and d <= _AFFINE and u[0] > 0.0:
        return d and _CONVEX, value_range
    raise _Unproved


def _factors(node, below: bool = False) -> list:
    """The factors of a * / chain, each with whether it is a divisor."""
    if isinstance(node, BinOp) and node.op in "*/" and not below:
        return _factors(node.left) + _factors(node.right, node.op == "/")
    return [(node, below)]


def _product_shape(node, iv: tuple) -> tuple:
    """A nonzero constant coefficient times one factor of any curvature, or
    times an atom of affine u: u*...*u (u^k), u*ln(u) or 1/u."""
    coefficient, value_range, atoms = (1.0, 1.0), (1.0, 1.0), []
    for factor, below in _factors(node):
        c, r = _shape(factor, iv)
        combine = _idiv if below else _imul
        value_range = combine(value_range, r)
        if c == _CONSTANT:
            coefficient = combine(coefficient, r)
        else:
            atoms.append((factor, c, r, below))
    if not atoms:
        return _CONSTANT, value_range
    if coefficient[0] <= 0.0 <= coefficient[1]:
        raise _Unproved
    u, c, r, below = atoms[0]
    nodes = [a[0] for a in atoms]
    if len(atoms) == 1 and not below:
        curvature = c
    elif len(atoms) == 1 and c == _AFFINE:  # 1/u, with u clear of 0
        curvature = _CONVEX if r[0] > 0.0 else _CONCAVE
    elif any(a[3] for a in atoms):
        raise _Unproved
    elif c == _AFFINE and nodes == [u] * len(nodes) and (len(nodes) % 2 == 0 or r[0] >= 0.0):
        curvature = _CONVEX  # u^k
    elif len(nodes) == 2 and any(a[1] == _AFFINE and Call("ln", (a[0],)) in nodes
                                 for a in atoms):
        curvature = _CONVEX  # u ln u, where ln has made sure that u > 0
    else:
        raise _Unproved
    return (curvature if coefficient[0] > 0.0 else _FLIPPED[curvature]), value_range


def convex_function_from_expression(source: str, interval: Interval):
    """Lower a source string onto an interval; the source is the label.

    Returns (ConvexFunction, warnings): the function is certified (closed
    form slopes) and the warnings list is empty, for the caller to extend.
    ``fn`` is lower_value; f'- and f'+ share one walk of _lower_jet per
    point, and the jet gives all three in one walk (see _oracles), bit for
    bit as lower_value and the one-sided walks give them.  The slopes raise
    ExtendedArithmeticError where they are an undefined form (inf - inf,
    0 * inf).  ``proved_convex`` records whether the composition rules
    prove the expression convex on the interval; the function is not
    evaluated here, and convex_core.require_convex samples what is not
    proved.
    """
    expr = parse_expression(source)
    fn, dminus, dplus, jet = _oracles(expr)
    return ConvexFunction(domain=interval, fn=fn, dminus=dminus, dplus=dplus, jet=jet,
                          name=source, certified=True,
                          proved_convex=_proves_convex(expr, interval)), []


def _oracles(expr) -> tuple:
    """(f, f'-, f'+, jet) of the tree.

    f'- and f'+ read a one-entry memo (t, fused _lower_jet(t)) keyed by the
    identity of t, so f'+(m) right after f'-(m) walks no tree, while 0.0
    and -0.0 (or two NaNs) never share an entry.  The entry is one tuple,
    so no thread reads half of it.  The jet, t -> (f, f'-, f'+), walks the
    fused _lower_jet once and rejects a NaN slope as f'- and then f'+
    would.  Where the fused walk raises _SidesDiffer, each side reads its
    own one-sided walk, and the jet calls f'-, f'+ and then f.
    """
    value, triples = lower_value(expr), _lower_jet(expr, 0)
    sides = (None, _lower_jet(expr, 1), _lower_jet(expr, 2))
    walk = lambda t, side: ensure_extended(sides[side](t)[side])

    def walks(t):
        dm = walk(t, 1)
        dp = walk(t, 2)
        return value(t), dm, dp
    memo = (None, None)

    def slope(t, side):
        nonlocal memo
        key, triple = memo
        if key is not t:
            try:
                triple = triples(t)
            except _SidesDiffer:
                triple = None
            memo = (t, triple)
        if triple is None:
            return walk(t, side)
        d = triple[side]
        return d if d == d else ensure_extended(d)  # d is a float: only a NaN is rejected

    def jet(t):
        try:
            triple = triples(t)
        except _SidesDiffer:
            return walks(t)
        _, dm, dp = triple
        if dm != dm or dp != dp:
            ensure_extended(dm)
            ensure_extended(dp)
        return triple

    return value, (lambda t: slope(t, 1)), (lambda t: slope(t, 2)), jet
