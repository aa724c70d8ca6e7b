"""The tree-walking evaluators that expressions.py lowered into closures.

Kept only as the reference of the differential test in
test_expressions.py: ``eval_expr`` returns the value of a tree at t and
``_value_and_slope`` its value and one-sided slope, walking the tree on
every call.  The lowered closures must agree with them bit for bit,
raised exceptions included.
"""

import math

from convex_enclose.errors import DomainError
from convex_enclose.expressions import BinOp, Call, Neg, Num, Var, _pow_value
from convex_enclose.extreal import INF, ensure_extended


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


def _has_var(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _has_var(node.operand)
    if isinstance(node, BinOp):
        return _has_var(node.left) or _has_var(node.right)
    return isinstance(node, Call) and any(_has_var(a) for a in node.args)


def _value_and_slope(node, t: float, sign: int):
    """Forward-mode value and one-sided slope (sign=+1 right, -1 left).

    Slopes use plain float arithmetic: an undefined form (inf - inf,
    0 * inf) leaves a NaN that the caller rejects.  Only a branch that
    would drop a NaN slope (a comparison, a discarded or sign-only
    operand) checks it on the spot.  A variable exponent follows
    (u^c)' = u^c (c' ln u + c u'/u).
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
            if _has_var(node.right):
                c, dc = _value_and_slope(node.right, t, sign)
            else:  # a variable-free exponent has slope 0, even sqrt(0)
                c, dc = eval_expr(node.right, t), 0.0
            value = _pow_value(u, c, node.span)
            if dc != 0.0:  # (u^c)' = u^c (c' ln u + c u'/u)
                ensure_extended(dc)
                if u > 0.0:
                    return value, value * (dc * math.log(u) + c * du / u)
                if not u == 0.0:
                    raise DomainError(
                        f"{u} ^ {c} has no one-sided slope near position {node.span[0]}")
                if c == 0.0:  # u^c tends to 1 and the c' ln u term decides
                    ensure_extended(du)
                    return value, -math.copysign(INF, dc)
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
