"""Expression frontend: parsing, evaluation, one-sided symbolic derivatives.

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

One-sided derivatives are evaluated by forward-mode differentiation over
the tree.  At an abs/max kink the requested side picks the correct
branch; sqrt and ln produce signed infinities where the tangent is
vertical.  Variable exponents (t in the exponent of ^) are not lowered
symbolically; convex_function_from_expression then falls back to sampled
estimation with a warning.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

from .convex_core import ConvexFunction, Interval
from .errors import DomainError, ExpressionError
from .extreal import INF, ensure_extended

CONSTANTS = {"e": math.e, "pi": math.pi}
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
        if self.at_op("-"):
            op = self.take()
            operand = self.factor()
            return Neg(operand, span=(op.pos, operand.span[1]))
        return self.power()

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
            return _respan(node, (tok.pos, closing.pos + 1))
        raise ExpressionError("expected a number, 't', a constant, or '('",
                              source=self.src, position=tok.pos)


def _respan(node, span):
    fields = {f: getattr(node, f) for f in node.__dataclass_fields__}
    fields["span"] = span
    return type(node)(**fields)


def parse_expression(src: str):
    """Parse source text into an expression tree."""
    return _Parser(src).parse()


def _is_constant(node) -> bool:
    if isinstance(node, Var):
        return False
    if isinstance(node, Num):
        return True
    if isinstance(node, Neg):
        return _is_constant(node.operand)
    if isinstance(node, BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    return all(_is_constant(a) for a in node.args)


def has_variable_exponent(node) -> bool:
    """True when some '^' has t in its exponent (no symbolic lowering)."""
    if isinstance(node, (Num, Var)):
        return False
    if isinstance(node, Neg):
        return has_variable_exponent(node.operand)
    if isinstance(node, Call):
        return any(has_variable_exponent(a) for a in node.args)
    if node.op == "^" and not _is_constant(node.right):
        return True
    return has_variable_exponent(node.left) or has_variable_exponent(node.right)


def _pow_value(u: float, c: float, span) -> float:
    try:
        return math.pow(u, c)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{u} ^ {c} undefined near position {span[0]}") from exc


def eval_expr(node, t: float) -> float:
    """Evaluate at t; raises DomainError outside a function's math domain."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(t)
    if isinstance(node, Neg):
        return -eval_expr(node.operand, t)
    if isinstance(node, Call):
        args = [eval_expr(a, t) for a in node.args]
        if node.func == "abs":
            return abs(args[0])
        if node.func == "max":
            return max(args)
        if node.func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError as exc:
                raise DomainError(f"exp overflow at t={t}") from exc
        if node.func == "ln":
            if args[0] <= 0.0:
                raise DomainError(f"ln of non-positive value {args[0]} at t={t}")
            return math.log(args[0])
        if args[0] < 0.0:
            raise DomainError(f"sqrt of negative value {args[0]} at t={t}")
        return math.sqrt(args[0])
    u = eval_expr(node.left, t)
    v = eval_expr(node.right, t)
    if node.op == "+":
        return u + v
    if node.op == "-":
        return u - v
    if node.op == "*":
        return u * v
    if node.op == "/":
        if v == 0.0:
            raise DomainError(f"division by zero at t={t}")
        return u / v
    return _pow_value(u, v, node.span)


def _value_and_slope(node, t: float, sign: int):
    """Forward-mode value and one-sided slope (sign=+1 right, -1 left).

    Slopes use plain float arithmetic: an undefined form (inf - inf,
    0 * inf) leaves a NaN that the caller rejects.  Only a branch that
    would drop a NaN slope (a comparison, a discarded or sign-only
    operand) checks it on the spot.
    """
    if isinstance(node, Num):
        return node.value, 0.0
    if isinstance(node, Var):
        return float(t), 1.0
    if isinstance(node, Neg):
        v, dv = _value_and_slope(node.operand, t, sign)
        return -v, -dv
    if isinstance(node, BinOp):
        if node.op == "^":
            u, du = _value_and_slope(node.left, t, sign)
            c = eval_expr(node.right, t)  # exponent is variable-free here
            value = _pow_value(u, c, node.span)
            if c == 0.0:
                ensure_extended(du)
                return value, 0.0
            if c == 1.0:
                return value, du
            if u == 0.0 and c < 1.0:
                # vertical tangent of u^c at u = 0
                ensure_extended(du)
                return value, math.copysign(INF, c * du) if du != 0.0 else 0.0
            return value, c * _pow_value(u, c - 1.0, node.span) * du
        u, du = _value_and_slope(node.left, t, sign)
        w, dw = _value_and_slope(node.right, t, sign)
        if node.op == "+":
            return u + w, du + dw
        if node.op == "-":
            return u - w, du - dw
        if node.op == "*":
            return u * w, du * w + u * dw
        if w == 0.0:
            raise DomainError(f"division by zero at t={t}")
        return u / w, (du * w - u * dw) / (w * w)
    # Call
    if node.func == "max":
        v, dv = _value_and_slope(node.args[0], t, sign)
        ensure_extended(dv)
        for arg in node.args[1:]:
            w, dw = _value_and_slope(arg, t, sign)
            ensure_extended(dw)
            if w > v:
                v, dv = w, dw
            elif w == v:
                dv = max(dv, dw) if sign > 0 else min(dv, dw)
        return v, dv
    u, du = _value_and_slope(node.args[0], t, sign)
    if node.func == "abs":
        if u > 0.0:
            return u, du
        if u < 0.0:
            return -u, -du
        return 0.0, abs(du) if sign > 0 else -abs(du)
    if node.func == "exp":
        try:
            v = math.exp(u)
        except OverflowError as exc:
            raise DomainError(f"exp overflow at t={t}") from exc
        return v, v * du
    if node.func == "ln":
        if u <= 0.0:
            raise DomainError(f"ln of non-positive value {u} at t={t}")
        return math.log(u), du * (1.0 / u)
    if u < 0.0:
        raise DomainError(f"sqrt of negative value {u} at t={t}")
    if u == 0.0:
        if ensure_extended(du) == 0.0:
            raise DomainError(f"indeterminate one-sided slope of sqrt at t={t}")
        return 0.0, math.copysign(INF, du)
    return math.sqrt(u), du * (0.5 / math.sqrt(u))


def one_sided_symbolic_derivative(expr, side: str) -> Callable[[float], float]:
    """Evaluator of the one-sided derivative of a parsed expression.

    ``side`` is "left" or "right".  Raises ExpressionError when the tree
    contains a construct without a symbolic one-sided rule (a variable
    exponent); callers may then fall back to sampled estimation.  The
    returned callable raises ExtendedArithmeticError where the slope is
    an undefined form (inf - inf, 0 * inf).
    """
    try:
        sign = {"left": -1, "right": +1}[side]
    except KeyError:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}") from None
    if has_variable_exponent(expr):
        raise ExpressionError(
            "variable exponents have no symbolic one-sided derivative rule"
        )
    return lambda t: ensure_extended(_value_and_slope(expr, t, sign)[1])


def convex_function_from_expression(source: str, interval: Interval):
    """Lower a source string onto an interval; the source is the label.

    Returns (ConvexFunction, warnings).  When the symbolic one-sided
    derivative is unavailable the function is built from sampled
    estimation instead (certified=False) and a warning explains why.
    Convexity is NOT checked here; see convex_core.require_convex.
    """
    expr = parse_expression(source)
    fn = lambda t: eval_expr(expr, t)
    warnings = []
    try:
        dminus = one_sided_symbolic_derivative(expr, "left")
        dplus = one_sided_symbolic_derivative(expr, "right")
        cf = ConvexFunction(domain=interval, fn=fn, dminus=dminus, dplus=dplus,
                            name=source, certified=True)
    except ExpressionError as exc:
        warnings.append(f"{exc}; falling back to sampled derivative estimation")
        cf = ConvexFunction.from_callable(fn, interval, name=source)
    return cf, warnings
