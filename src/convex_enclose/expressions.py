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
exponents included.  Constants and t get no closures of their own where
their parent folds them: the parent binds a leaf's slots to locals and
runs the generic rule's float operations unchanged, so a walk makes about
one Python call per operator and every bit of its result is kept.  At an
abs/max kink each side picks its branch; sqrt, ln and ^ produce signed
infinities where the tangent is vertical.
The fused walk serves both sides at once: it is the function's jet
(``convex_core.Jet``), which the integrator calls once per point, and
f'- and f'+ read it too.  Where only a side-specific check can decide, a
one-sided walk of the same lowering, lowered when first needed, serves
each side.  Source text is read in one regular-expression pass; trees
nest at most MAX_DEPTH levels (parentheses and operator chains count),
far from Python's recursion limit.

``_proves_convex`` tries to prove a tree convex on an interval by
composition rules; what it cannot prove, ``_walk`` tries to prove or
disprove from interval ranges of f'' on pieces of the interval; what
stays undecided is left to the sampled check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

from .convex_core import ConvexFunction, ConvexityReport, Interval
from .errors import DomainError, ExpressionError, NumericalFailureError
from .extreal import INF, ensure_extended

CONSTANTS = {"e": math.e, "pi": math.pi}
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"
_FUNCS = ("abs", "ln", "exp", "sqrt", "max")


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


# Whitespace runs, and a last catch-all for the character no token starts with.
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(src: str) -> list:
    """(kind, text, position) of each token, then ("end", "", len(src))."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group()!r}", source=src,
                                  position=m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over the token tuples.  Each rule returns its node
    and the node's height, which counts the levels of operator chains that
    the factor depth does not see; an operator's text identifies its token."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.index = 0
        self.depth = 0

    def expect(self, text: str) -> int:
        """The position of the expected operator token, which is taken."""
        _, found, pos = self.tokens[self.index]
        if found != text:
            raise ExpressionError(f"expected {text!r}", source=self.src, position=pos)
        self.index += 1
        return pos

    def parse(self):
        node, height = self.expr()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}",
                                  source=self.src, position=pos)
        if height > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, source=self.src)
        return node

    def expr(self, term: bool = False):
        """An expr, or with term=True a term: a left-to-right operator chain."""
        ops = ("*", "/") if term else ("+", "-")
        node, height = self.factor() if term else self.expr(True)
        tokens = self.tokens
        while (op := tokens[self.index][1]) in ops:
            self.index += 1
            right, h = self.factor() if term else self.expr(True)
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
            height = max(height, h) + 1
        return node, height

    def factor(self):
        self.depth += 1  # parentheses, arguments, unary minus and exponents all nest here
        _, text, pos = self.tokens[self.index]
        if self.depth > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, source=self.src, position=pos)
        if text == "-":
            self.index += 1
            operand, height = self.factor()
            node, height = Neg(operand, (pos, operand.span[1])), height + 1
        else:
            node, height = self.atom()
            if self.tokens[self.index][1] == "^":
                self.index += 1
                exponent, h = self.factor()
                node = BinOp("^", node, exponent, (node.span[0], exponent.span[1]))
                height = max(height, h) + 1
        self.depth -= 1
        return node, height

    def atom(self):
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "num":
            return Num(float(text), (pos, pos + len(text))), 1
        if kind == "ident":
            if text == "t":
                return Var((pos, pos + 1)), 1
            if text in CONSTANTS:
                return Num(CONSTANTS[text], (pos, pos + len(text))), 1
            if text in _FUNCS:
                return self.call(text, pos)
            raise ExpressionError(f"unknown identifier {text!r}", source=self.src, position=pos)
        if text == "(":
            inner, height = self.expr()
            span = (pos, self.expect(")") + 1)
            # the node with the span of its parentheses, minus dataclasses.replace's checks
            node = object.__new__(type(inner))
            node.__dict__.update(inner.__dict__, span=span)
            return node, height
        raise ExpressionError("expected a number, 't', a constant, or '('",
                              source=self.src, position=pos)

    def call(self, name: str, pos: int):
        self.expect("(")
        arg, height = self.expr()
        args = [arg]
        while self.tokens[self.index][1] == ",":
            self.index += 1
            arg, h = self.expr()
            args.append(arg)
            height = max(height, h)
        closing = self.expect(")")
        if len(args) < 2 if name == "max" else len(args) != 1:
            raise ExpressionError("max takes at least two arguments" if name == "max" else
                                  f"{name} takes exactly one argument",
                                  source=self.src, position=pos)
        return Call(name, tuple(args), (pos, closing + 1)), height + 1


def parse_expression(src: str):
    """Parse source text into an expression tree (ExpressionError if invalid)."""
    return _Parser(src).parse()


def _is_constant(node) -> bool:
    if isinstance(node, Neg):
        return _is_constant(node.operand)
    if isinstance(node, BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    return all(map(_is_constant, node.args)) if isinstance(node, Call) else isinstance(node, Num)


def _pow_value(u: float, c: float, span) -> float:
    try:
        return math.pow(u, c)
    except OverflowError as exc:
        raise DomainError(f"{u} ^ {c} overflows near position {span[0]}") from exc
    except ValueError as exc:
        raise DomainError(f"{u} ^ {c} undefined near position {span[0]}") from exc


def _slope_factor(u: float, c: float, span) -> float:
    """c u^(c-1), the slope factor of u^c at a base u != 0 where u^c is
    defined; its overflow is a numerical failure, not invalid input."""
    try:
        return c * math.pow(u, c - 1.0)
    except OverflowError as exc:
        raise NumericalFailureError(
            f"the slope of {u} ^ {c} overflows near position {span[0]}") from exc


def lower_value(node) -> Callable[[float], float]:
    """Closure t -> value of the tree; raises DomainError outside a
    function's math domain.  Children are evaluated first, left to right.
    A constant operand of + - * and a variable-free exponent are folded
    into their parent's closure; t lowers to the builtin float."""
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
    if node.op == "^":
        span, c = node.span, _fixed_exponent(node.right, right)
        if c is None:
            return lambda t: _pow_value(left(t), right(t), span)
        return lambda t: _pow_value(left(t), c, span)
    if node.op == "/":
        return lambda t: _div(left(t), right(t), t)
    if isinstance(node.right, Num):  # a constant operand is read from the closure
        c = node.right.value
        if node.op == "+":
            return lambda t: left(t) + c
        if node.op == "-":
            return lambda t: left(t) - c
        return lambda t: left(t) * c
    if isinstance(node.left, Num):
        c = node.left.value
        if node.op == "+":
            return lambda t: c + right(t)
        if node.op == "-":
            return lambda t: c - right(t)
        return lambda t: c * right(t)
    if node.op == "+":
        return lambda t: left(t) + right(t)
    if node.op == "-":
        return lambda t: left(t) - right(t)
    return lambda t: left(t) * right(t)


def _fixed_exponent(node, walk):
    """The value of a variable-free exponent from its value walk, computed
    once at lowering; None where the exponent varies, or where the walk
    raises, which it then does on each call, so that the error names t."""
    if _is_constant(node):
        try:
            return walk(0.0)
        except DomainError:
            pass
    return None


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
    return _slope_factor(u, c, span) * du


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

    A constant or t is folded into its parent where the expressions the
    program is fed put it: beside another leaf under + - *, left of *
    (c*w, t*w), under exp or ln, or, in the fused walk, under sqrt or a
    constant power.  The parent binds the leaf's slots, (c, 0.0, 0.0) or
    (float(t), 1.0, 1.0), to locals and runs the generic rule's float
    operations unchanged and in the same order.  No term is simplified
    away (0.0 * w stays), because signed zeros and the NaN of 0 * inf must
    match.  A variable-free exponent is evaluated once at lowering (see
    _fixed_exponent).  Elsewhere a leaf keeps its own closure.
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
        if isinstance(node.args[0], Var) and node.func in _JETS_OF_T and (
                node.func != "sqrt" or not side):
            return _JETS_OF_T[node.func]
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
    if node.op == "^":
        span = node.span
        if _is_constant(node.right):
            # slope 0; the slope walk of sqrt(0) would raise where its value does not
            exponent = lower_value(node.right)
            fixed = _fixed_exponent(node.right, exponent)
            if isinstance(node.left, Var) and not side:
                def power_of_t(t):  # power with u, dm, dp bound to float(t), 1.0, 1.0
                    u = float(t)
                    c = exponent(t) if fixed is None else fixed
                    value = _pow_value(u, c, span)
                    if c == 0.0 or u == 0.0:
                        raise _SidesDiffer
                    if c == 1.0:
                        return value, 1.0, 1.0
                    d = _slope_factor(u, c, span) * 1.0
                    return value, d, d
                return power_of_t
            left = _lower_jet(node.left, side)

            def power(t):
                u, dm, dp = left(t)
                c = exponent(t) if fixed is None else fixed
                value = _pow_value(u, c, span)
                if c == 0.0 or u == 0.0:
                    if not side:
                        raise _SidesDiffer
                    d = _power_slope(value, u, (dm, dp)[side - 1], c, 0.0, span)
                    return value, d, d
                if c == 1.0:
                    return value, dm, dp
                k = _slope_factor(u, c, span)
                return value, k * dm, k * dp
            return power
        left, right = _lower_jet(node.left, side), _lower_jet(node.right, side)

        def variable_power(t):
            u, um, up = left(t)
            c, cm, cp = right(t)
            value = _pow_value(u, c, span)
            try:
                return (value, _power_slope(value, u, um, c, cm, span),
                        _power_slope(value, u, up, c, cp, span))
            except (DomainError, NumericalFailureError):
                if not side:
                    raise _SidesDiffer from None
            d = _power_slope(value, u, (um, up)[side - 1], c, (cm, cp)[side - 1], span)
            return value, d, d
        return variable_power
    x, y = _leaf(node.left), _leaf(node.right)
    if x and (y or node.op == "*") and node.op != "/":
        return _fold_jet(node, x, y, side)
    left, right = _lower_jet(node.left, side), _lower_jet(node.right, side)
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
        v = _div(u, w, t)
        return v, (um - v * wm) / w, (up - v * wp) / w
    return div


# The jets of exp, ln and sqrt of t: the generic rules with u, dm, dp bound to
# float(t), 1.0, 1.0, products with the slope 1.0 kept.  The jet of sqrt(t)
# serves the fused walk only: at t = 0 it leaves each side to its own walk.
def _exp_jet_of_t(t):
    v = _exp(float(t), t)
    d = v * 1.0
    return v, d, d


def _ln_jet_of_t(t):
    u = float(t)
    v, r = _ln(u, t), 1.0 / u
    d = 1.0 * r
    return v, d, d


def _sqrt_jet_of_t(t):
    u = float(t)
    v = _sqrt(u, t)
    if u == 0.0:
        raise _SidesDiffer
    d = 1.0 * (0.5 / v)
    return v, d, d


_JETS_OF_T = {"exp": _exp_jet_of_t, "ln": _ln_jet_of_t, "sqrt": _sqrt_jet_of_t}


def _leaf(node):
    """The slots (value, slope) of a constant, (None, 1.0) of t, whose value
    is float(t), or None of any other node."""
    if isinstance(node, Num):
        return node.value, 0.0
    return (None, 1.0) if isinstance(node, Var) else None


def _fold_jet(node, x, y, side: int):
    """_lower_jet of u + w, u - w or u * w where x and y, the _leaf slots of
    u and w, are both set, or of u * w where only x is.  A leaf's slots are
    locals, and the generic rule's float operations run unchanged and in the
    same order."""
    (a, da), op = x, node.op
    if not y:
        right = _lower_jet(node.right, side)

        def mul_left_leaf(t):
            u = float(t) if a is None else a
            w, wm, wp = right(t)
            return u * w, da * w + u * wm, da * w + u * wp
        return mul_left_leaf
    b, db = y
    if op == "*":
        def mul_leaves(t):
            u = float(t) if a is None else a
            w = float(t) if b is None else b
            d = da * w + u * db
            return u * w, d, d
        return mul_leaves
    d = da + db if op == "+" else da - db
    if op == "+":
        def add_leaves(t):
            u = float(t) if a is None else a
            w = float(t) if b is None else b
            return u + w, d, d
        return add_leaves

    def sub_leaves(t):
        u = float(t) if a is None else a
        w = float(t) if b is None else b
        return u - w, d, d
    return sub_leaves


# Convexity proof by composition rules, in the style of disciplined convex
# programming (Grant, Boyd and Ye, 2006).  Each node gets a curvature and an
# enclosure of its values over the interval, rounded outward one ulp per
# inexact operation so that it holds the float evaluation too.  A node
# outside the rules, a range that is not finite or a divisor whose range
# holds 0 leaves the expression unproved, for the sampled check to judge
# with its own messages.
_CONSTANT, _AFFINE, _CONVEX, _CONCAVE = range(4)  # `c and _CONVEX` keeps 0 constant
_FLIPPED = (_CONSTANT, _AFFINE, _CONCAVE, _CONVEX)


_PROVED = ConvexityReport(ok=True, worst_violation=0.0, witness=None, checks=0, tol=0.0,
                          method="proved")
_ZERO, _ONE, _TWO = (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)


class _Unproved(Exception):
    """The rules cannot prove the node's curvature."""


def _proves_convex(node, interval: Interval) -> bool:
    """True when the rules prove the expression convex on the interval."""
    try:
        return _shape(node, (interval.lo, interval.hi))[0] != _CONCAVE
    except (_Unproved, ArithmeticError, ValueError):
        return False


def continuous_on(node, lo: float, hi: float) -> bool:
    """True when the rules range the expression on [lo, hi], whatever its
    curvature.  Then every node is finite and continuous there (no 0^u, no
    divisor or ln argument that reaches 0), so each value is both one-sided
    limits of the function at that point."""
    try:
        _shape(node, (lo, hi))
    except (_Unproved, ArithmeticError, ValueError):
        return False
    return True


def _out(lo: float, hi: float) -> tuple:
    lo, hi = math.nextafter(lo, -INF), math.nextafter(hi, INF)
    if not (lo > -INF and hi < INF):  # NaN fails too
        raise _Unproved
    return lo, hi


def _ineg(x) -> tuple:
    return -x[1], -x[0]


def _isum(x, y, x_varies: bool = False, y_varies: bool = False) -> tuple:
    """x + y; _Unproved where the float sum can lose a term said to vary,
    as one that varies by less than a millionth of the sum."""
    r = _out(x[0] + y[0], x[1] + y[1])
    least = 1e-6 * max(-r[0], r[1])
    if (x_varies and x[1] - x[0] < least) or (y_varies and y[1] - y[0] < least):
        raise _Unproved
    return r


def _imul(x, y) -> tuple:
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return _out(min(products), max(products))


def _idiv(x, y) -> tuple:
    if y[0] <= 0.0 <= y[1]:
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
        c, r = _shape(node.operand, iv)
        return _FLIPPED[c], _ineg(r)
    if isinstance(node, Call):
        return _call_shape(node, iv)
    if node.op in "+-":
        c, x = _shape(node.left, iv)
        d, y = _shape(node.right, iv)
        if node.op == "-":
            d, y = _FLIPPED[d], _ineg(y)
        if {c, d} == {_CONVEX, _CONCAVE}:
            raise _Unproved
        return max(c, d), _isum(x, y, c != _CONSTANT, d != _CONSTANT)
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
    """u^p with constant p and affine u, c^u with constant c > 0, or else,
    for u > 0, u^v as exp(v ln u), whose range also bounds u^v's."""
    c, u = _shape(node.left, iv)
    d, p = _shape(node.right, iv)
    value_range = _ipow(u, p)
    if d == _CONSTANT and u[0] > 0.0:
        _ipow(u, (p[0] - 1.0, p[1] - 1.0))  # the slope p u^(p-1) must not overflow
    if d == _CONSTANT and c == _AFFINE:
        if (p[0] >= 1.0 and u[0] >= 0.0) or _is_even(p) or (p[1] <= 0.0 and u[0] > 0.0):
            return _CONVEX, value_range
        if p[0] > 0.0 and p[1] < 1.0 and u[0] >= 0.0:
            return _CONCAVE, value_range
    elif c == _CONSTANT and d <= _AFFINE and u[0] > 0.0:
        return d and _CONVEX, value_range
    if u[0] > 0.0:
        c, r = _shape(Call("exp", (BinOp("*", node.right, Call("ln", (node.left,))),)), iv)
        return c, (max(r[0], value_range[0]), min(r[1], value_range[1]))
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
        _idiv(_idiv(_ONE, r), r)  # the slope -u'/u^2 must not overflow
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


# The second-order walk (Fourer, Maheshwari, Neumaier, Orban and Schichl,
# "Convexity and concavity detection in computational graphs", 2010) decides
# what the rules leave open.  Each node gets ranges of f, f' and f'' over a
# piece of the interval, from the ranges of its children by the chain,
# product and quotient rules (interval derivatives as in Moore, Kearfott and
# Cloud, 2009), rounded outward as _shape rounds.  Finite ranges make the
# expression twice continuously differentiable on the closed piece, so
# f'' >= 0 there makes it convex on the piece and f'' < 0 makes it strictly
# concave.  abs of an argument whose sign the piece leaves open splits the
# piece, and so does an f'' range that holds 0 inside; max, a variable
# exponent or a range that is not finite leave the whole walk undecided.
# At most 16 walks of the tree: an undecided walk then costs about a quarter
# of the sampled check that follows it, and the walk still proves
# 1/(t*t+1) on [1, 3], which takes 9
_WALK_CAP = 16


class _Split(Exception):
    """The piece is too wide to decide: walk its halves."""


def _wmul(x, y) -> tuple:
    """_imul, passing an exact 0 or 1 (the slopes of t and of constants)
    through unrounded."""
    if x == _ZERO or y == _ZERO:
        return _ZERO
    if x == _ONE or y == _ONE:
        return y if x == _ONE else x
    return _imul(x, y)


def _wsum(x, y) -> tuple:
    """_isum, passing the other term through where one is an exact 0."""
    if x == _ZERO or y == _ZERO:
        return y if x == _ZERO else x
    return _isum(x, y)


def _chain(u, g, g1, g2) -> tuple:
    """(f, f', f'') of g(u) from u's and the ranges of g, g' and g'' over u's
    values: g'(u) u' and g''(u) u'^2 + g'(u) u''."""
    _, d1, d2 = u
    return g, _wmul(g1, d1), _wsum(_wmul(g2, d1 if d1 == _ONE else _ipow(d1, _TWO)),
                                   _wmul(g1, d2))


def _power_curves(u, p) -> tuple:
    """Ranges of u^p, p u^(p-1) and p (p-1) u^(p-2) for a constant p.  A
    multiple of 1/2 keeps exact exponents, so that an even one needs no
    sign of u and (t - c)^2 and sqrt(t) = t^(1/2) cost no wider ranges."""
    if p[0] == p[1] and abs(p[0]) <= 2.0**50 and p[0] * 2.0 % 1.0 == 0.0:
        q1, q2 = (p[0] - 1.0,) * 2, (p[0] - 2.0,) * 2
    else:
        q1, q2 = _out(p[0] - 1.0, p[1] - 1.0), _out(p[0] - 2.0, p[1] - 2.0)
    g1 = _wmul(p, u if q1 == _ONE else _ipow(u, q1))
    g2 = _wmul(_wmul(p, q1), u if q2 == _ONE else _ipow(u, q2))
    return _ipow(u, p), g1, g2


def _curves(node, iv: tuple) -> tuple:
    """Ranges (f, f', f'') of a node over the piece iv."""
    if isinstance(node, Num):
        return _shape(node, iv)[1], _ZERO, _ZERO
    if isinstance(node, Var):
        return iv, _ONE, _ZERO
    if isinstance(node, Neg):
        return tuple(map(_ineg, _curves(node.operand, iv)))
    if isinstance(node, Call):
        if node.func == "max":
            raise _Unproved
        u = _curves(node.args[0], iv)
        lo, hi = u[0]
        if node.func == "abs":
            if lo >= 0.0 or hi <= 0.0:
                return u if lo >= 0.0 else tuple(map(_ineg, u))
            raise _Split
        if node.func == "exp":
            g = _out(math.exp(lo), math.exp(hi))
            return _chain(u, g, g, g)
        if node.func == "sqrt":
            return _chain(u, *_power_curves(u[0], (0.5, 0.5)))
        g1 = _idiv(_ONE, u[0])  # ln, for u > 0
        return _chain(u, _out(math.log(lo), math.log(hi)), g1, _ineg(_ipow(g1, _TWO)))
    if node.op == "^":
        if not _is_constant(node.right):
            raise _Unproved
        u = _curves(node.left, iv)
        return _chain(u, *_power_curves(u[0], _shape(node.right, iv)[1]))
    (f, f1, f2), (g, g1, g2) = _curves(node.left, iv), _curves(node.right, iv)
    if node.op in "+-":
        if node.op == "-":
            g, g1, g2 = _ineg(g), _ineg(g1), _ineg(g2)
        return (_isum(f, g, not _is_constant(node.left), not _is_constant(node.right)),
                _wsum(f1, g1), _wsum(f2, g2))
    if node.op == "*":
        return (_wmul(f, g), _wsum(_wmul(f1, g), _wmul(f, g1)),
                _wsum(_wsum(_wmul(f2, g), _wmul(_TWO, _wmul(f1, g1))), _wmul(f, g2)))
    v = _idiv(f, g)  # v' = (f' - v g') / g and v'' = (f'' - 2 v' g' - v g'') / g
    v1 = _idiv(_wsum(f1, _ineg(_wmul(v, g1))), g)
    return v, v1, _idiv(_wsum(f2, _ineg(_wsum(_wmul(_TWO, _wmul(v1, g1)), _wmul(v, g2)))), g)


def _walk(node, interval: Interval, jet):
    """The walk's verdict as a ConvexityReport of method "walk", or None
    where it stays undecided.  Pieces are walked left to right, halving
    each undecided one, at most _WALK_CAP walks in all.  A proof needs
    f'' >= 0 on every piece and f'-(x) <= f'+(x) from the jet at every
    join x; a disproof is one piece where f'' < 0, whose report's witness
    is the piece and its f'' range (lo, hi, f''_lo, f''_hi)."""
    pieces, joins, walks = [(interval.lo, interval.hi)], [], 0
    while pieces:
        if walks == _WALK_CAP:
            return None
        lo, hi = piece = pieces.pop()
        walks += 1
        try:
            low, high = _curves(node, piece)[2]
        except _Split:
            low, high = -INF, INF
        except (_Unproved, ArithmeticError, ValueError):
            return None
        if high < 0.0:
            return ConvexityReport(ok=False, worst_violation=-high, witness=(lo, hi, low, high),
                                   checks=walks, tol=0.0, method="walk")
        if low >= 0.0:
            joins.append(hi)
            continue
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return None
        pieces += [(mid, hi), (lo, mid)]
    for x in joins[:-1]:
        try:
            _, dm, dp = jet(x)
        except (DomainError, NumericalFailureError):
            return None
        if not dm <= dp:
            return None
    return ConvexityReport(ok=True, worst_violation=0.0, witness=None,
                           checks=walks + len(joins) - 1, tol=0.0, method="walk")


def convex_function_from_expression(source: str, interval: Interval):
    """Lower a source string onto an interval; the source is the label.

    Returns (ConvexFunction, warnings): the function is certified (closed
    form slopes) and the warnings list is empty, for the caller to extend.
    ``fn`` is lower_value; f'-, f'+ and the jet read the fused walk of
    _lower_jet, and its one-sided walks where the sides differ (see
    _oracles), so that the jet gives all three bit for bit as they do.
    The slopes raise ExtendedArithmeticError where they are an undefined
    form (inf - inf, 0 * inf).  All three are pure functions of t.
    ``convexity`` is the verdict on the interval: the one "proved" report
    where the composition rules prove the expression convex, else the
    second-order walk's report, or None where the walk stays undecided.
    The function is evaluated here only at the walk's joins, by its jet;
    convex_core.require_convex acts on the verdict and samples what has none.
    """
    expr = parse_expression(source)
    fn, dminus, dplus, jet = _oracles(expr)
    convexity = _PROVED if _proves_convex(expr, interval) else _walk(expr, interval, jet)
    return ConvexFunction(domain=interval, fn=fn, dminus=dminus, dplus=dplus, jet=jet,
                          name=source, certified=True, convexity=convexity), []


def _oracles(expr) -> tuple:
    """(f, f'-, f'+, jet) of the tree, each a pure function of t.

    f'-, f'+ and the jet, t -> (f, f'-, f'+), read the fused _lower_jet
    walk; the jet rejects a NaN slope as f'- and then f'+ would.  Where
    it raises _SidesDiffer, each side's one-sided walk serves that side
    (the jet calls f'-, f'+, then f).  A one-sided walk is lowered when
    first needed; threads that race to lower it lower equal walks.
    """
    value, fused = lower_value(expr), _lower_jet(expr, 0)
    walks = [None, None, None]  # by side: the one-sided walks, once lowered

    def one_sided(side, t):
        walk = walks[side]
        if walk is None:
            walk = walks[side] = _lower_jet(expr, side)
        return ensure_extended(walk(t)[side])

    def slope(side):  # f'- for side 1, f'+ for side 2
        def oracle(t):
            try:
                return ensure_extended(fused(t)[side])
            except _SidesDiffer:
                return one_sided(side, t)
        return oracle

    def jet(t):
        try:
            triple = fused(t)
        except _SidesDiffer:
            dm, dp = one_sided(1, t), one_sided(2, t)
            return value(t), dm, dp
        _, dm, dp = triple
        if dm != dm or dp != dp:
            ensure_extended(dm)
            ensure_extended(dp)
        return triple

    return value, slope(1), slope(2), jet
