"""Exact sparse multivariate polynomial arithmetic over the rationals.

An integral coefficient is stored as an ``int`` and any other as a
:class:`fractions.Fraction`, so integer input stays in machine-int
arithmetic; nothing in this package touches floating point.  A
polynomial lives over a :class:`VarRegistry`, which fixes the ordered
list of variables together with their quasi homogeneous weights.
Polynomials are immutable after construction and two polynomials compare
equal exactly when their registries are structurally equal and their
term maps coincide.

The text grammar accepted by :func:`parse` (whitespace is insignificant):

    variables   z<k>  (k >= 1),  y,  t,  s,  a_<i>_<j>,  a_<k>
    numbers     integers and fractions  p/q
    operators   +  -  *  ^   and parentheses

In a registry whose pair variables are antisymmetric, an occurrence of
``a_<j>_<i>`` with j > i is accepted and rewritten as ``-a_<i>_<j>`` at
parse time, so that only one variable per unordered pair is ever stored.
Registries with independent ordered-pair variables store ``a_i_j`` and
``a_j_i`` separately and perform no rewriting.

Monomials are kept sparse: a monomial is a tuple of (variable position,
exponent) pairs, sorted by position, with no zero exponents stored.

Every product goes through one multiply-accumulate kernel,
:func:`sum_of_products`, which expands a sum c1*p1*q1 + c2*p2*q2 + ...
into a single term dict without building any intermediate polynomial;
``p * q`` is its one-product case.  Two monomials whose supports do not
interleave multiply by tuple concatenation, lower positions first, which
is already sorted; only interleaved supports are merged by
:func:`mono_mul`.  :func:`substitute` is the one change-of-ring path (a
substitution, or a renaming into another registry): it hands every
term's image factors to one kernel call, so a term of degree at most 2
builds no intermediate polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Var",
    "VarRegistry",
    "Polynomial",
    "Mono",
    "Scalar",
    "NONHOMOGENEOUS",
    "ParseError",
    "build_registry",
    "parse",
    "substitute",
    "sum_of_products",
    "weighted_degree",
    "mono_mul",
    "mono_lcm",
    "mono_divides",
    "mono_degree",
    "mono_weighted_degree",
]

# A monomial: ((var_position, exponent), ...), sorted, exponents > 0.
Mono = tuple
MONO_ONE: Mono = ()

Scalar = Union[int, Fraction]


class _NonHomogeneous:
    """Sentinel returned by weighted_degree for inhomogeneous polynomials."""

    _instance: Optional["_NonHomogeneous"] = None

    def __new__(cls) -> "_NonHomogeneous":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NONHOMOGENEOUS"


NONHOMOGENEOUS = _NonHomogeneous()


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# variables and registries

@dataclass(frozen=True)
class Var:
    """A single variable: display name and weight."""

    name: str
    weight: int


@dataclass(frozen=True)
class VarRegistry:
    """Ordered variable list shared by all polynomials of one ring.

    ``antisymmetric_pairs`` controls how two-index ``a`` variables behave:
    if true (the default) only ``a_i_j`` with i < j exists and ``a_j_i``
    parses to its negative; if false both orders are independent variables.

    The hash is computed once at construction, since registries key the
    caches of polynomial building blocks; equality stays structural.
    """

    vars: tuple
    antisymmetric_pairs: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_pos", {v.name: k for k, v in enumerate(self.vars)}
        )
        object.__setattr__(self, "_weights", tuple(v.weight for v in self.vars))
        object.__setattr__(self, "_hash", hash((self.vars, self.antisymmetric_pairs)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def weights(self) -> tuple:
        return self._weights

    @property
    def names(self) -> tuple:
        return tuple(v.name for v in self.vars)

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in registry") from None

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def resolve(self, name: str) -> "tuple[int, int]":
        """Map a variable name to (position, sign).

        The sign is -1 exactly for ``a_j_i`` with j > i in an antisymmetric
        registry; in every other case it is +1.
        """
        if name in self._pos:
            return self._pos[name], 1
        if self.antisymmetric_pairs:
            m = re.fullmatch(r"a_(\d+)_(\d+)", name)
            if m:
                i, j = int(m.group(1)), int(m.group(2))
                if i == j:
                    raise KeyError(f"pair variable {name!r} has equal indices")
                flipped = f"a_{j}_{i}"
                if i > j and flipped in self._pos:
                    return self._pos[flipped], -1
        raise KeyError(f"unknown variable {name!r} in registry")

    def restrict(self, keep: Iterable[str]) -> "VarRegistry":
        """Sub-registry with only the named variables, original order kept."""
        keep_set = set(keep)
        missing = keep_set - set(self.names)
        if missing:
            raise KeyError(f"variables not in registry: {sorted(missing)}")
        return VarRegistry(
            tuple(v for v in self.vars if v.name in keep_set),
            self.antisymmetric_pairs,
        )


def build_registry(
    nz: int = 0,
    y: bool = False,
    t: bool = False,
    s: bool = False,
    npairs: int = 0,
    ordered_pairs: bool = False,
    params: Sequence[int] = (),
) -> VarRegistry:
    """Assemble a registry in the canonical order.

    Order: z1..z_nz, then y, t, s (whichever are present), then the pair
    variables a_i_j sorted lexicographically, then single-index parameters
    a_k in the order given.  Weights: z, t, s, a-variables and parameters
    get weight 1; y gets weight 2.

    ``npairs`` is the number n of pair indices; antisymmetric registries
    get the a_i_j with 1 <= i < j <= n, ordered registries all ordered
    pairs i != j.
    """
    vs = [Var(f"z{i}", 1) for i in range(1, nz + 1)]
    if y:
        vs.append(Var("y", 2))
    if t:
        vs.append(Var("t", 1))
    if s:
        vs.append(Var("s", 1))
    if ordered_pairs:
        for i in range(1, npairs + 1):
            for j in range(1, npairs + 1):
                if i != j:
                    vs.append(Var(f"a_{i}_{j}", 1))
    else:
        for i in range(1, npairs + 1):
            for j in range(i + 1, npairs + 1):
                vs.append(Var(f"a_{i}_{j}", 1))
    for k in params:
        vs.append(Var(f"a_{k}", 1))
    return VarRegistry(tuple(vs), antisymmetric_pairs=not ordered_pairs)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff monomial a divides b."""
    ib = 0
    lb = len(b)
    for va, ea in a:
        while ib < lb and b[ib][0] < va:
            ib += 1
        if ib == lb or b[ib][0] != va or b[ib][1] < ea:
            return False
        ib += 1
    return True


def mono_lcm(a: Mono, b: Mono) -> Mono:
    da = dict(a)
    for vb, eb in b:
        if da.get(vb, 0) < eb:
            da[vb] = eb
    return tuple(sorted(da.items()))


def mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def mono_weighted_degree(a: Mono, weights: Sequence[int]) -> int:
    return sum(weights[v] * e for v, e in a)


def mono_coprime(a: Mono, b: Mono) -> bool:
    sa = {v for v, _ in a}
    return not any(v in sa for v, _ in b)


# ---------------------------------------------------------------------------
# polynomials


def _exact(c) -> Scalar:
    """The exact coefficient equal to c: an int when c is integral,
    otherwise a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Immutable sparse polynomial with exact coefficients: integral
    ones are ints, the others Fractions."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: VarRegistry, terms: Optional[Mapping] = None):
        object.__setattr__(self, "reg", reg)
        cleaned = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *_):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # construction helpers ---------------------------------------------------

    @staticmethod
    def zero(reg: VarRegistry) -> "Polynomial":
        return Polynomial(reg)

    @staticmethod
    def const(reg: VarRegistry, c: Scalar) -> "Polynomial":
        c = _exact(c)
        return Polynomial._raw(reg, {MONO_ONE: c} if c else {})

    @staticmethod
    def var(reg: VarRegistry, name: str) -> "Polynomial":
        pos, sign = reg.resolve(name)
        return Polynomial._raw(reg, {((pos, 1),): sign})

    @staticmethod
    def _raw(reg: VarRegistry, terms: dict) -> "Polynomial":
        """Trusted constructor: terms must be nonzero and exact already
        (ints where integral, Fractions otherwise)."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "reg", reg)
        object.__setattr__(p, "terms", terms)
        return p

    # queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, mono: Mono) -> Scalar:
        return self.terms.get(mono, 0)

    def constant_term(self) -> Scalar:
        return self.terms.get(MONO_ONE, 0)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("total degree of the zero polynomial is undefined")
        return max(mono_degree(m) for m in self.terms)

    # arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.reg is not other.reg and self.reg != other.reg:
            raise ValueError("polynomials live over different registries")

    def _plus(self, other, negate: bool):
        """self + other, or self - other when negate, in one pass."""
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(self.reg, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            c = -c if negate else c
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    # two non-integral Fractions can sum to an integer
                    out[m] = acc if type(acc) is int else _exact(acc)
                else:
                    del out[m]
        return Polynomial._raw(self.reg, out)

    def __add__(self, other):
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.reg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, True)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.reg, other)
        return other._plus(self, True) if isinstance(other, Polynomial) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _exact(other)
            if not c:
                return Polynomial.zero(self.reg)
            return Polynomial._raw(
                self.reg, {m: _exact(k * c) for m, k in self.terms.items()}
            )
        return sum_of_products(self.reg, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.const(self.reg, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.reg == other.reg and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.const(self.reg, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.reg.names, tuple(sorted(self.terms.items()))))

    # printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({to_str(self)})"


def sum_of_products(
    reg: VarRegistry, products: Iterable[Tuple[Scalar, Polynomial, Polynomial]]
) -> Polynomial:
    """The sum of c*p*q over the (c, p, q) triples, every factor over
    ``reg``, expanded into one term dict: no intermediate product or
    partial sum is built.  This is the one multiplication loop of the
    package; ``Polynomial.__mul__`` is the one-product case.

    A product monomial is the concatenation ``ms + mb`` (or ``mb + ms``)
    when every position of one factor lies below every position of the
    other, an empty monomial included; only interleaved supports go
    through the merge of ``mono_mul``."""
    out: dict = {}
    for c, p, q in products:
        for f in (p, q):
            if f.reg is not reg and f.reg != reg:
                raise ValueError("polynomials live over different registries")
        if not c:  # else a new monomial gets acc == 0, and del raises KeyError
            continue
        small, big = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
        for ms, cs in small.terms.items():
            cs = c * cs
            lo, hi = (ms[0][0], ms[-1][0]) if ms else (0, -1)
            for mb, cb in big.terms.items():
                if not mb or hi < mb[0][0]:
                    m = ms + mb
                elif mb[-1][0] < lo:
                    m = mb + ms
                else:
                    m = mono_mul(ms, mb)
                acc = out.get(m, 0) + cs * cb
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    for m, c in out.items():
        if type(c) is not int:  # a product with a Fraction may be integral
            out[m] = _exact(c)
    return Polynomial._raw(reg, out)


# ---------------------------------------------------------------------------
# weighted degree


def weighted_degree(p: Polynomial):
    """Common weighted degree of all terms, or NONHOMOGENEOUS.

    Raises ValueError on the zero polynomial, whose degree is undefined.
    """
    if p.is_zero():
        raise ValueError("weighted degree of the zero polynomial is undefined")
    w = p.reg.weights
    it = iter(p.terms)
    d = mono_weighted_degree(next(it), w)
    for m in it:
        if mono_weighted_degree(m, w) != d:
            return NONHOMOGENEOUS
    return d


# ---------------------------------------------------------------------------
# substitution


def substitute(
    p: Polynomial,
    assignment: Mapping[str, Polynomial],
    target: Optional[VarRegistry] = None,
) -> Polynomial:
    """Simultaneous substitution of polynomials for variables.

    ``assignment`` maps variable names of ``p``'s registry to polynomials
    over the target registry: ``target`` if given, else the registry of
    the first value, else ``p``'s.  A value over any other registry, or
    two names for one variable, raise ``ValueError``.  Variables of
    ``p`` that are not assigned are mapped to the same-named variable of
    the target registry, which must therefore contain them, so
    ``substitute(p, {}, target=sub)`` moves p into the registry ``sub``.
    This is a ring homomorphism; the result is fully expanded by one
    ``sum_of_products`` call, which takes the image factors of each
    term: only the factors beyond a term's last two are multiplied
    ahead.
    """
    if target is None:
        target = next(iter(assignment.values())).reg if assignment else p.reg
    values: dict = {}
    for name, q in assignment.items():
        if q.reg is not target and q.reg != target:
            raise ValueError(f"the value of {name!r} does not live over the target registry")
        pos, sign = p.reg.resolve(name)
        if pos in values:
            raise ValueError(f"variable {name!r} assigned twice")
        values[pos] = q if sign == 1 else -q

    one = Polynomial.const(target, 1)
    products = []
    for m, c in p.terms.items():
        factors = [one, one]
        for v, e in m:
            image = values.get(v)
            if image is None:  # built once, so the result's monomials share its pairs
                image = values[v] = Polynomial.var(target, p.reg.vars[v].name)
            factors += [image] * e
        head = factors[-2]
        for f in factors[2:-2]:
            head = f * head
        products.append((c, head, factors[-1]))
    return sum_of_products(target, products)


# ---------------------------------------------------------------------------
# canonical printing (graded reverse lexicographic on the registry order)


def _grevlex_key(reg: VarRegistry):
    nv = reg.nvars

    def key(m: Mono):
        dense = [0] * nv
        for v, e in m:
            dense[v] = e
        return (mono_degree(m), tuple(-dense[i] for i in range(nv - 1, -1, -1)))

    return key


def to_str(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    """Canonical string form; ``names`` substitutes display names
    positionally (for exports whose identifier syntax differs)."""
    if p.is_zero():
        return "0"
    key = _grevlex_key(p.reg)
    if names is None:
        names = p.reg.names
    else:
        names = tuple(names)
        if len(names) != p.reg.nvars:
            raise ValueError("need one display name per variable")
    parts = []
    for m in sorted(p.terms, key=key, reverse=True):
        c = p.terms[m]
        factors = []
        for v, e in m:
            factors.append(names[v] if e == 1 else f"{names[v]}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("num") is not None:
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, reg: VarRegistry):
        self.tokens = _tokenize(text)
        self.reg = reg
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", pos)
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        acc = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                nxt = self.term()
                acc = acc + nxt if val == "+" else acc - nxt
            else:
                return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            nkind, nval, npos = self.peek()
            if nkind != "num" or "/" in nval:
                raise ParseError("exponent must be a nonnegative integer", npos)
            self.advance()
            return base ** int(nval)
        return base

    def atom(self) -> Polynomial:
        kind, val, pos = self.advance()
        if kind == "num":
            if "/" in val:
                a, b = val.split("/")
                if int(b) == 0:
                    raise ParseError("zero denominator", pos)
                return Polynomial.const(self.reg, Fraction(int(a), int(b)))
            return Polynomial.const(self.reg, int(val))
        if kind == "name":
            try:
                p, sign = self.reg.resolve(val)
            except KeyError as exc:
                raise ParseError(str(exc), pos) from None
            return Polynomial._raw(self.reg, {((p, 1),): sign})
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, reg: VarRegistry) -> Polynomial:
    """Parse polynomial text over the given registry.

    Malformed input raises :class:`ParseError` with the offending position;
    names that do not resolve in the registry are reported the same way.
    """
    return _Parser(text, reg).parse()
