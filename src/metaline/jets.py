"""First-order jets for exact forward-mode differentiation.

A Jet1 carries a value and a tuple of partial derivatives along a fixed
number of independent perturbation directions.  Products of two
perturbations vanish (second order is truncated), so evaluating any
polynomial expression on jets yields the exact value together with all
first partials in one pass.  Only the symbolic slide oracle differentiates
on them: the Maurer-Cartan and Levi-tensor oracles take exact increments."""

from __future__ import annotations

from .scalars import ONE, Q, ZERO


class Jet1:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = val
        self.eps = tuple(eps)

    @classmethod
    def const(cls, value, width):
        return cls(value if type(value) is Q else Q(value), (ZERO,) * width)

    def _lift(self, other):
        return other if isinstance(other, Jet1) else Jet1.const(other, len(self.eps))

    def __add__(self, other):
        o = self._lift(other)
        return Jet1(self.val + o.val, tuple(a + b for a, b in zip(self.eps, o.eps)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Jet1(self.val - o.val, tuple(a - b for a, b in zip(self.eps, o.eps)))

    def __rsub__(self, other):
        o = self._lift(other)
        return Jet1(o.val - self.val, tuple(a - b for a, b in zip(o.eps, self.eps)))

    def __neg__(self):
        return Jet1(-self.val, tuple(-a for a in self.eps))

    def __mul__(self, other):
        if isinstance(other, Jet1):
            a, b = self.val, other.val
            return Jet1(a * b, (a * db + b * da for da, db in zip(self.eps, other.eps)))
        c = other if type(other) is Q else Q(other)
        return Jet1(self.val * c, tuple(c * da for da in self.eps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.val == 0:
            raise ZeroDivisionError("jet with zero value part")
        a, b = self.val, o.val
        bb = b * b
        return Jet1(a / b, tuple((da * b - a * db) / bb for da, db in zip(self.eps, o.eps)))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, exponent):
        e = int(exponent)
        if e < 0:
            raise ValueError("negative jet exponent")
        if e == 0:
            return Jet1(ONE, (ZERO,) * len(self.eps))
        coef = e * self.val ** (e - 1)
        return Jet1(self.val ** e, tuple(coef * da for da in self.eps))

    def __eq__(self, other):
        if isinstance(other, Jet1):
            return self.val == other.val and self.eps == other.eps
        return self.val == other and all(a == 0 for a in self.eps)

    def __hash__(self):
        return hash((self.val, self.eps))

    def __repr__(self):
        return f"Jet1({self.val!r}, {self.eps!r})"
