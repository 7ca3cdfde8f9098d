"""Exact scalar expressions over time, control, and state variables.

An expression is stored as a fraction of two multivariate polynomials with
integer coefficients, in lowest terms.  The indeterminates ("atoms") are the
problem variables plus kernel terms exp(a), sin(a), cos(a), ln(a) whose
arguments are themselves expressions in canonical form; kernels with
distinct canonical arguments are independent atoms, so structural equality
of canonical forms is decidable while identities that mix kernels
(sin^2 + cos^2 = 1) are left alone.  A monomial of variables is packed into
one integer whose layout the VariableSpace fixes, so polynomial products
add integers (see the polynomial layer below).  Expressions are immutable
values and may be shared freely across threads; there is no global mutable
state.

Identity arithmetic returns an operand: x + 0, 0 + x, x - 0, x*1, 1*x,
x*0, 0*x, x/1 and exact_quotient(x, 1) are the operand that already is the
result, decided by value before any new form is built.  Forms are
canonical and an operand's kernels are those its atoms use, so the operand
is the value the general route would build.  Each VariableSpace keeps one
zero and one one, built on first use; Expr.zero, Expr.one, Expr.rational
of 0 or 1 and every zero result return them.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction

from .errors import DomainError, ExprSyntaxError, UnknownVariable

__all__ = [
    "Zeroness",
    "VariableSpace",
    "Point",
    "Expr",
    "parse_expr",
    "float_at",
    "product_terms",
    "denominator_lcm",
    "divide_by_gcd",
    "divide_by_factors",
    "exact_quotient",
    "signed_content",
    "primitive_factor_base",
]

KERNEL_NAMES = ("exp", "sin", "cos", "ln")

# Randomized falsifier policy (see Expr.zeroness): number of sample points, the
# magnitude threshold below which a float sample counts as vanishing, and the
# coordinate box [-3, 3] with denominators <= 8.
FALSIFIER_SAMPLES = 16
FALSIFIER_TOL = 1e-9
FALSIFIER_SEED = 0
_FALSIFIER_DEN = 8
_FALSIFIER_BOX = 3


class Zeroness:
    ZERO = "zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


class VariableSpace:
    """Ordered variable list: t, then controls, then states.

    The ordering is fixed for the lifetime of a problem instance; variable
    indices are used as atom identities throughout the package.
    """

    def __init__(self, states, inputs):
        states = list(states)
        inputs = list(inputs)
        names = ["t"] + inputs + states
        if len(set(names)) != len(names):
            raise ValueError(f"variable names not unique: {names}")
        for nm in names:
            if not nm.isidentifier():
                raise ValueError(f"bad variable name: {nm!r}")
            if nm in KERNEL_NAMES:
                raise ValueError(f"variable name {nm!r} collides with a function")
        self.names = tuple(names)
        self.n = len(states)
        self.m = len(inputs)
        self.state_names = tuple(states)
        self.input_names = tuple(inputs)
        self._index = {nm: i for i, nm in enumerate(names)}
        # the packed monomial layout: the degree field above one field per
        # variable, t in the highest
        k = len(names)
        if k >= _MAX_FIELDS:
            raise ValueError(f"at most {_MAX_FIELDS - 1} variables, "
                             f"got {k}")
        self._degree_unit = 1 << (_W * k)
        self._units = tuple(self._degree_unit | 1 << (_W * (k - 1 - i))
                            for i in range(k))
        self._zero = None  # Expr.zero of this space, built on first use
        self._one = None   # Expr.one of this space, built on first use

    @classmethod
    def canonical(cls, n, m):
        return cls([f"x{i}" for i in range(1, n + 1)],
                   [f"u{j}" for j in range(1, m + 1)])

    @property
    def total(self):
        return 1 + self.m + self.n

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def state_indices(self):
        return range(1 + self.m, self.total)

    def __eq__(self, other):
        return isinstance(other, VariableSpace) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableSpace({self.names})"


class Point:
    """A full binding of every variable to an exact rational or a float."""

    def __init__(self, vars: VariableSpace, values):
        values = tuple(values)
        if len(values) != vars.total:
            raise ValueError(
                f"point needs {vars.total} values, got {len(values)}")
        self.vars = vars
        self.values = tuple(
            v if isinstance(v, (Fraction, float)) else Fraction(v)
            for v in values)
        self._integers = None  # integer_form(), False for a float point
        self._perturbed = None  # pfaffian.perturbed_points of this point

    def value(self, index):
        return self.values[index]

    def of(self, name):
        return self.values[self.vars.index(name)]

    def replace(self, **kw):
        vals = list(self.values)
        for nm, v in kw.items():
            vals[self.vars.index(nm)] = v
        return Point(self.vars, vals)

    def integer_form(self):
        """(d, numerators, powers) with the values equal to numerators / d
        for one common denominator d, or None when a value is a float.
        `powers` caches numerators[i] ** e under (i, e), and the degree
        and the numerator value of each packed monomial evaluated at the
        point under the monomial.  Built once per point."""
        if self._integers is None:
            self._integers = False
            if all(isinstance(v, Fraction) for v in self.values):
                d = 1
                for v in self.values:
                    d = d * v.denominator // math.gcd(d, v.denominator)
                self._integers = (d, [v.numerator * (d // v.denominator)
                                      for v in self.values], {})
        return self._integers or None

    def as_float_tuple(self):
        return tuple(float(v) for v in self.values)

    def __repr__(self):
        body = ", ".join(f"{nm}={v}" for nm, v in zip(self.vars.names, self.values))
        return f"Point({body})"


# ---------------------------------------------------------------------------
# polynomial layer: dict {monomial: int}
#
# A monomial of variables is one int of _W-bit fields (Monagan & Pearce,
# CASC 2007, "Polynomial division using dynamic arrays, heaps, and packed
# exponent vectors").  The top field holds the total degree, and below it
# come one field per variable, t in the highest (VariableSpace fixes the
# layout).  So integer order is graded lexicographic order, "an earlier atom
# with a larger exponent wins", the constant monomial is 0, and a product of
# monomials is a sum.  The top bit of each field is a guard: no sum of two
# monomials carries out of a field, and an exponent or a total degree past
# _MAX_EXP sets a guard bit, which raises DomainError.  A monomial with
# kernel atoms is a _KMono, whose variable part and tail of kernel atoms
# sort after every variable; the degree field counts both.
#
# Monomials decode (_mono_pairs) to (atom, exponent) pairs sorted by atom,
# with atoms (0, var_index) for variables and (1, kind, fingerprint) for
# kernels, where the fingerprint is the canonical key of the kernel's
# argument.  Canonical keys, and so hashes and printed forms, are read from
# that form.  Coefficients are integers: rational scalars live in an
# expression's denominator.  Polynomials are never changed in place, so
# they may be shared.
# ---------------------------------------------------------------------------

_W = 16                                 # bits per field
_FIELD = (1 << _W) - 1
_MAX_EXP = (1 << (_W - 1)) - 1          # the largest exponent and degree
_MAX_FIELDS = 4096                      # variables + 1 (the degree field)
_GUARDS = (1 << (_W - 1)) * (
    ((1 << (_W * _MAX_FIELDS)) - 1) // _FIELD)   # each field's top bit

_ONE = {0: 1}


class _KMono:
    """A monomial with kernel atoms: `v`, the packed variable part whose
    degree field counts the kernel exponents too, and `k`, the nonempty
    tuple of (kernel atom, exponent) pairs sorted by atom.  `+` multiplies
    monomials and `-` divides them (None when the quotient is not a
    monomial); the order is grlex, with every kernel after every variable.
    An int and a _KMono are never equal, since their degree fields differ
    for the same variable part."""

    __slots__ = ("v", "k", "_hash")

    def __init__(self, v, k):
        self.v = v
        self.k = k
        self._hash = None

    def __add__(self, other):
        if other.__class__ is int:
            return _KMono(self.v + other, self.k)
        return _KMono(self.v + other.v, _merge_tails(self.k, other.k))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is int:
            v, k = self.v - other, self.k
        else:
            v, k = self.v - other.v, _divide_tails(self.k, other.k)
            if k is None:
                return None
        if v < 0 or v & _GUARDS:
            return None
        return _KMono(v, k) if k else v

    def __rsub__(self, other):
        return None     # a monomial without kernels has no kernel divisor

    def __neg__(self):
        return _Negated(self)

    def __eq__(self, other):
        return (other.__class__ is _KMono and self.v == other.v
                and self.k == other.k)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.v, self.k))
        return self._hash

    def __lt__(self, other):
        if other.__class__ is int:
            return self.v < other
        return (self.v, _tail_key(other.k)) < (other.v, _tail_key(self.k))

    def __gt__(self, other):
        if other.__class__ is int:
            return self.v > other
        return (other.v, _tail_key(self.k)) < (self.v, _tail_key(other.k))

class _Negated:
    """-m for a _KMono m: ordered against negated monomials in reverse, so
    that a min-heap of negated monomials pops the grlex-greatest first."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __neg__(self):
        return self.m

    def __lt__(self, other):
        return self.m > -other

    def __gt__(self, other):
        return self.m < -other


def _tail_key(k):
    """Equal total degree: the greater tail has the smaller key."""
    return tuple((a, -e) for a, e in k)


def _merge_tails(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] == b[j][0]:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _divide_tails(a, b):
    """The tail a / b, or None when b does not divide a."""
    out = []
    j = 0
    for atom, e in b:
        while j < len(a) and a[j][0] < atom:
            out.append(a[j])
            j += 1
        if j >= len(a) or a[j][0] != atom or a[j][1] < e:
            return None
        if a[j][1] > e:
            out.append((atom, a[j][1] - e))
        j += 1
    out.extend(a[j:])
    return tuple(out)


def _kmono(v, k):
    return _KMono(v, k) if k else v


def _check_fields(m):
    """Raise DomainError when a field of the monomial m passed its guard
    bit.  Every exponent is at most the total degree, and sums of valid
    monomials do not carry, so checking the grlex-greatest monomial of a
    product checks them all."""
    if (m if m.__class__ is int else m.v) & _GUARDS:
        raise DomainError(f"an exponent or a total degree exceeds "
                          f"{_MAX_EXP}")


def _mono_pairs(m):
    """The monomial as (atom, exponent) pairs sorted by atom, visiting only
    its nonzero fields."""
    tail = ()
    if m.__class__ is not int:
        m, tail = m.v, m.k
    if not m:
        return tail
    top = (m.bit_length() - 1) & -_W    # the shift of the degree field
    m -= (m >> top) << top
    pairs = []
    while m:
        s = (m.bit_length() - 1) & -_W
        e = m >> s
        m -= e << s
        pairs.append(((0, (top - s) // _W - 1), e))
    return (*pairs, *tail)


def _p_atom(vars, atom):
    """The polynomial of one kernel atom."""
    return {_KMono(vars._degree_unit, ((atom, 1),)): 1}


def _is_const(A):
    return len(A) == 1 and 0 in A


def _is_unit(A):
    return len(A) == 1 and A.get(0) == 1


def _p_add(A, B):
    if not A:
        return B
    if not B:
        return A
    out = dict(A)
    for m, c in B.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_neg(A):
    return {m: -c for m, c in A.items()}


_p_leading = max    # the grlex-greatest monomial: integer order is grlex


def _p_mul(A, B):
    if not A or not B:
        return {}
    if _is_unit(A):
        return B
    if _is_unit(B):
        return A
    _check_fields(max(A) + max(B))     # the product of greatest degree
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            m = ma + mb
            c = ca * cb
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _p_pow(A, k):
    if A and k > 1:
        # the degree of A^k, before any product is multiplied out
        lead = _p_leading(A)
        v = lead if lead.__class__ is int else lead.v
        if v and (v >> ((v.bit_length() - 1) & -_W)) * k > _MAX_EXP:
            raise DomainError(f"an exponent or a total degree exceeds "
                              f"{_MAX_EXP}")
    out = _ONE
    base = A
    while k:
        if k & 1:
            out = _p_mul(out, base)
        if k > 1:
            base = _p_mul(base, base)
        k >>= 1
    return out


def _mono_divides(a, b):
    """b / a when the monomial a divides b, else None: a borrow from a
    field sets its guard bit."""
    q = b - a
    if q.__class__ is int and (q < 0 or q & _GUARDS):
        return None
    return q


def _ip_divexact(A, B):
    """Exact division A / B in Z[atoms], or None when B does not divide A
    or a quotient coefficient would not be an integer.

    The leading terms of the remainder come off a min-heap of negated
    monomials, so each step costs a logarithm instead of a scan of the
    whole remainder; monomials that cancelled are skipped when popped.
    """
    if not A:
        return {}
    if not B:
        return None
    lb = _p_leading(B)
    cb = B[lb]
    tail = [(m, c) for m, c in B.items() if m != lb]
    R = dict(A)
    heap = [-m for m in R]
    heapq.heapify(heap)
    Q = {}
    while heap:
        lr = -heapq.heappop(heap)
        cr = R.pop(lr, None)
        if cr is None:
            continue
        q = _mono_divides(lb, lr)
        if q is None:
            return None
        c, r = divmod(cr, cb)
        if r:
            return None
        Q[q] = c
        for m, co in tail:
            mm = m + q
            s = R.get(mm)
            if s is None:
                R[mm] = -co * c
                heapq.heappush(heap, -mm)
            else:
                s -= co * c
                if s:
                    R[mm] = s
                else:
                    del R[mm]
    return Q


def _p_atoms(A):
    """The atoms of A, as _mono_pairs gives them."""
    acc = 0
    out = set()
    for m in A:
        if m.__class__ is int:
            acc |= m
        else:
            acc |= m.v
            out.update(a for a, _ in m.k)
    out.update(a for a, _ in _mono_pairs(acc))
    return out


def _p_kernel_atoms(A):
    return {a for m in A if m.__class__ is not int for a, _ in m.k}


def _int_content(A):
    g = 0
    for c in A.values():
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _int_divide(A, c):
    return A if c == 1 else {m: v // c for m, v in A.items()}


def _int_multiply(A, c):
    return A if c == 1 else {m: v * c for m, v in A.items()}


def _int_primitive(A):
    return _int_divide(A, _int_content(A))


def _content_cofactors(A, B):
    """(c, A/c, B/c) for the common integer content c of A and B."""
    c = math.gcd(_int_content(A), _int_content(B))
    return {0: c}, _int_divide(A, c), _int_divide(B, c)


def _ip_cofactors(A, B):
    """(g, A/g, B/g) for nonzero A and B, where g is gcd(A, B) in Z[atoms]
    with a positive grlex leading coefficient.

    Heuristic GCD decides it, and the quotients are those of its own
    division check.  When the heuristic gives up, the common integer
    content stands in: a divisor of the gcd, not the gcd."""
    found = _heu_gcd(A, B)
    if found is None:
        found = _content_cofactors(A, B)
    g = found[0]
    if g[_p_leading(g)] < 0:
        return tuple(_p_neg(P) for P in found)
    return found


_HEU_GCD_TRIES = 6  # evaluation points per atom before giving up


def _heu_gcd(A, B):
    """Heuristic GCD (Char, Geddes & Gonnet 1989) of nonzero A and B, up to
    sign, as (g, A/g, B/g), or None when it gives up.

    The largest atom is set to an integer xi, the gcd of the two images is
    taken recursively, and its coefficients are read as digits in symmetric
    base xi.  With xi >= 2 min(|A|, |B|) + 2 (max norms, common content
    removed) the primitive part of that reading is the gcd exactly when it
    divides both inputs, which is checked; the quotients of that check are
    the cofactors, and a primitive part 1 needs no check.  A failed point
    moves on to a larger xi, at most _HEU_GCD_TRIES points in all; a failed
    image gcd gives up at once, so no level retries for the levels below
    it."""
    if _is_const(A) or _is_const(B):
        return _content_cofactors(A, B)
    cont = math.gcd(_int_content(A), _int_content(B))
    A, B = _int_divide(A, cont), _int_divide(B, cont)
    atom = _largest_atom(A, B)
    xi = 2 * min(max(map(abs, A.values())), max(map(abs, B.values()))) + 2
    for _ in range(_HEU_GCD_TRIES):
        a = _ip_evaluate(A, atom, xi)
        b = _ip_evaluate(B, atom, xi)
        if a and b:
            h = _heu_gcd(a, b)
            if h is None:
                return None
            h = _int_primitive(_ip_interpolate(h[0], atom, xi))
            if _is_unit(h):
                return {0: cont}, A, B
            qa = _ip_divexact(A, h)
            if qa is not None:
                qb = _ip_divexact(B, h)
                if qb is not None:
                    return _int_multiply(h, cont), qa, qb
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _largest_atom(A, B):
    """The monomial of the largest atom of A and B: the largest kernel atom
    when there is one, else the variable of the lowest nonzero field."""
    acc = 0
    kernel = None
    for P in (A, B):
        for m in P:
            if m.__class__ is int:
                acc |= m
            elif kernel is None or m.k[-1][0] > kernel:
                kernel, v = m.k[-1][0], m.v
    if kernel is not None:
        return _KMono(1 << ((v.bit_length() - 1) & -_W), ((kernel, 1),))
    return (1 << ((acc.bit_length() - 1) & -_W)
            | 1 << (((acc & -acc).bit_length() - 1) & -_W))


def _ip_evaluate(A, atom, xi):
    """A with `atom`, the monomial of its largest atom, set to xi."""
    out = {}
    pows = {}
    if atom.__class__ is int:
        s = (atom & -atom).bit_length() - 1     # the atom's field
        kernel = None
    else:
        kernel, unit = atom.k[0][0], atom.v
    for m, c in A.items():
        if kernel is None:
            e = ((m if m.__class__ is int else m.v) >> s) & _FIELD
            if e:
                m = m - e * atom
        elif m.__class__ is int or m.k[-1][0] != kernel:
            e = 0
        else:
            e = m.k[-1][1]
            m = _kmono(m.v - e * unit, m.k[:-1])
        if e:
            p = pows.get(e)
            if p is None:
                p = pows[e] = xi ** e
            c *= p
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _ip_interpolate(h, atom, xi):
    """Read each coefficient of h in symmetric base xi; digit i becomes the
    coefficient of atom^i (atom exceeds every atom of h)."""
    out = {}
    half = xi // 2
    if atom.__class__ is not int:
        kernel, unit = atom.k[0][0], atom.v
    for m, c in h.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                if not i:
                    mi = m
                elif atom.__class__ is int:
                    mi = m + i * atom
                elif m.__class__ is int:
                    mi = _KMono(m + i * unit, ((kernel, i),))
                else:
                    mi = _KMono(m.v + i * unit, m.k + ((kernel, i),))
                out[mi] = d
            c = (c - d) // xi
            i += 1
        if i > _MAX_EXP:
            raise DomainError(f"an exponent exceeds {_MAX_EXP}")
    return out


def _p_eval_int(P, d, nums, powers):
    """Kernel-free P at the point nums / d, as integers (n, q) with
    P = n / q.  Terms are summed in integers per total degree k, and the
    sums are brought over the one denominator d^K."""
    by_degree = {}
    for m, c in P.items():
        kv = powers.get(m)
        if kv is None:
            kv = powers[m] = _mono_eval_int(m, nums, powers)
        k, v = kv
        if v:
            by_degree[k] = by_degree.get(k, 0) + c * v
    if not by_degree:
        return 0, 1
    top = max(by_degree)
    if d == 1:
        return sum(by_degree.values()), 1
    return (sum(s * d ** (top - k) for k, s in by_degree.items()),
            d ** top)


def _mono_eval_int(m, nums, powers):
    """(degree, value) of a packed monomial at the integers nums, visiting
    only its nonzero fields."""
    if not m:
        return 0, 1
    top = (m.bit_length() - 1) & -_W    # the shift of the degree field
    k = m >> top
    m -= k << top
    v = 1
    while m:
        s = (m.bit_length() - 1) & -_W
        e = m >> s
        m -= e << s
        i = (top - s) // _W - 1
        x = nums[i]
        if not x:
            return k, 0
        if e != 1:
            x = powers.get((i, e))
            if x is None:
                x = powers[(i, e)] = nums[i] ** e
        v *= x
    return k, v


def _p_subst(P, values, vars):
    """P with its atoms in `values` replaced by their Expr values, as
    integer polynomials (N, D) with P = N / D.  D is the product of each
    value's den raised to the greatest exponent its atom has in P, so each
    term is c * prod(num^e * den^(E - e)) times the term's other atoms;
    every kernel atom of P is in `values`."""
    fields = [(a, vars._units[a[1]]) for a in values if a[0] == 0]
    split = []      # (kept monomial, coefficient, {atom: exponent})
    top = {}        # atom -> greatest exponent in P
    for m, c in P.items():
        if m.__class__ is int:
            v, tail = m, ()
        else:
            v, tail = m.v, m.k
        es = {}
        for a, unit in fields:
            e = (v >> ((unit & -unit).bit_length() - 1)) & _FIELD
            if e:
                v -= e * unit
                es[a] = e
        for a, e in tail:
            v -= e * vars._degree_unit
            es[a] = e
        for a, e in es.items():
            if e > top.get(a, 0):
                top[a] = e
        split.append((v, c, es))
    if not top:
        return P, _ONE
    # the powers 0..E of each value's num and den
    pows = {a: ([_ONE], [_ONE]) for a in top}
    den = _ONE
    for a, E in top.items():
        for ps, base in zip(pows[a], (values[a].num, values[a].den)):
            while len(ps) <= E:
                ps.append(_p_mul(ps[-1], base))
        den = _p_mul(den, pows[a][1][E])
    fractional = [a for a in top if not _is_unit(values[a].den)]
    out = {}
    for v, c, es in split:
        T = {v: c}
        for a, e in es.items():
            T = _p_mul(T, pows[a][0][e])
        for a in fractional:
            T = _p_mul(T, pows[a][1][top[a] - es.get(a, 0)])
        for m, t in T.items():
            out[m] = out.get(m, 0) + t
    return {m: t for m, t in out.items() if t}, den


def _p_key(A, lc):
    """A / lc for lc > 0, as sorted (monomial, (numerator, denominator))
    pairs in lowest terms, each monomial as _mono_pairs gives it."""
    if lc == 1:
        return tuple(sorted((_mono_pairs(m), (c, 1)) for m, c in A.items()))
    out = []
    for m, c in A.items():
        g = math.gcd(c, lc)
        out.append((_mono_pairs(m), (c // g, lc // g)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Expr
# ---------------------------------------------------------------------------

class Expr:
    """Immutable exact expression in canonical fraction form: num / den
    with num and den in Z[atoms], gcd(num, den) = 1 (contents included) and
    den with a positive grlex leading coefficient.  So x/2 is num = x,
    den = 2, and a polynomial is an expression whose den is a constant."""

    __slots__ = ("vars", "num", "den", "kernels", "_key", "_hash", "_diffs",
                 "_zero", "_str", "_terms")

    def __init__(self, vars, num, den, kernels, _internal=False):
        if not _internal:
            raise TypeError("use the Expr factory methods")
        self.vars = vars
        self.num = num
        self.den = den
        self.kernels = kernels
        self._key = None
        self._hash = None
        self._diffs = None  # partials by variable index, taken on first use
        self._zero = None
        self._str = None
        self._terms = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _make(vars, num, den, kernels):
        if not den:
            raise DomainError("division by zero expression")
        if not num:
            return Expr.zero(vars)
        if not _is_unit(den):
            _, num, den = _ip_cofactors(num, den)
            if den[_p_leading(den)] < 0:
                num, den = _p_neg(num), _p_neg(den)
        if kernels:
            used = _p_kernel_atoms(num) | _p_kernel_atoms(den)
            kernels = {a: e for a, e in kernels.items() if a in used}
        return Expr(vars, num, den, kernels, _internal=True)

    @staticmethod
    def rational(vars, c):
        if not isinstance(c, int):
            c = Fraction(c)
            if c.denominator != 1:
                return Expr(vars, {0: c.numerator}, {0: c.denominator}, {},
                            _internal=True)
            c = c.numerator
        if c == 0:
            return Expr.zero(vars)
        if c == 1:
            return Expr.one(vars)
        return Expr(vars, {0: c}, _ONE, {}, _internal=True)

    @staticmethod
    def zero(vars):
        if vars._zero is None:
            vars._zero = Expr(vars, {}, _ONE, {}, _internal=True)
        return vars._zero

    @staticmethod
    def one(vars):
        if vars._one is None:
            vars._one = Expr(vars, _ONE, _ONE, {}, _internal=True)
        return vars._one

    @staticmethod
    def var(vars, name):
        return Expr.var_index(vars, vars.index(name))

    @staticmethod
    def var_index(vars, i):
        return Expr(vars, {vars._units[i]: 1}, _ONE, {}, _internal=True)

    @staticmethod
    def kernel(kind, arg: "Expr"):
        if kind not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {kind!r}")
        c = arg.as_rational()
        if c is not None:
            if kind == "exp" and c == 0:
                return Expr.one(arg.vars)
            if kind == "sin" and c == 0:
                return Expr.zero(arg.vars)
            if kind == "cos" and c == 0:
                return Expr.one(arg.vars)
            if kind == "ln" and c == 1:
                return Expr.zero(arg.vars)
        atom = (1, kind, arg.key())
        return Expr(arg.vars, _p_atom(arg.vars, atom), _ONE, {atom: arg},
                    _internal=True)

    # -- inspection ----------------------------------------------------------

    def key(self):
        """The canonical form as sorted (monomial, (p, q)) pairs of num and
        den scaled to a monic den; kernel atoms are ordered by the keys of
        their arguments."""
        if self._key is None:
            lc = self.den[_p_leading(self.den)]
            self._key = (_p_key(self.num, lc), _p_key(self.den, lc))
        return self._key

    def is_structural_zero(self):
        return not self.num

    def _is_one(self):
        return _is_unit(self.num) and _is_unit(self.den)

    def is_polynomial(self):
        """Is the denominator a constant?"""
        return _is_const(self.den)

    def as_rational(self):
        """The exact rational value, or None when not a constant."""
        if not self.num:
            return Fraction(0)
        if _is_const(self.num) and _is_const(self.den):
            return Fraction(self.num[0], self.den[0])
        return None

    def numerator(self):
        """num / lc(den): the numerator when the denominator is made monic."""
        return self._poly_expr(self.num, self.den[_p_leading(self.den)])

    def denominator(self):
        """den / lc(den): the monic denominator."""
        return self._poly_expr(self.den, self.den[_p_leading(self.den)])

    def terms(self):
        """The terms of a polynomial, as (coefficient, factors) pairs: a
        Fraction and a tuple of (base, exponent) with each base a variable
        or a kernel."""
        if not self.is_polynomial():
            raise ValueError("terms of a rational function")
        d = self.den[0]
        return [(Fraction(c, d), tuple((self._atom_expr(a), e)
                                       for a, e in _mono_pairs(m)))
                for m, c in self.num.items()]

    def as_kernel(self):
        """(kind, argument) when the expression is one kernel, else None."""
        if _is_unit(self.den) and len(self.num) == 1:
            (m, c), = self.num.items()
            if (c == 1 and m.__class__ is _KMono and len(m.k) == 1
                    and m.k[0][1] == 1 and m.v == self.vars._degree_unit):
                atom = m.k[0][0]
                return atom[1], self.kernels[atom]
        return None

    def has_kernels(self):
        return bool(self.kernels)

    def atoms(self):
        return _p_atoms(self.num) | _p_atoms(self.den)

    def depends_on(self, index):
        """Does the expression involve variable `index`, possibly inside a
        kernel argument?"""
        for a in self.atoms():
            if a[0] == 0 and a[1] == index:
                return True
            if a[0] == 1 and self.kernels[a].depends_on(index):
                return True
        return False

    def free_variables(self):
        out = set()
        for a in self.atoms():
            if a[0] == 0:
                out.add(a[1])
            else:
                out |= self.kernels[a].free_variables()
        return out

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.vars == other.vars and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        """Read from the packed num and den that `__eq__` compares, never
        from the decoded `key()`; computed once."""
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    def _poly_expr(self, poly, d=1):
        return Expr._make(self.vars, poly, {0: d}, self.kernels)

    def _atom_expr(self, atom):
        if atom[0] == 0:
            return Expr.var_index(self.vars, atom[1])
        return Expr(self.vars, _p_atom(self.vars, atom), _ONE,
                    {atom: self.kernels[atom]}, _internal=True)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expr):
            if other.vars is not self.vars and other.vars != self.vars:
                raise ValueError("mixing expressions over different variable spaces")
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.rational(self.vars, other)
        return None

    def _merge_kernels(self, other):
        if not other.kernels:
            return self.kernels
        if not self.kernels:
            return other.kernels
        out = dict(self.kernels)
        out.update(other.kernels)
        return out

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den == o.den:
            num, den = _p_add(self.num, o.num), self.den
        else:
            num = _p_add(_p_mul(self.num, o.den), _p_mul(o.num, self.den))
            den = _p_mul(self.den, o.den)
        return Expr._make(self.vars, num, den, self._merge_kernels(o))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.vars, _p_neg(self.num), self.den, self.kernels,
                    _internal=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or o._is_one():
            return self
        if not o.num or self._is_one():
            return o
        return Expr._make(self.vars, _p_mul(self.num, o.num),
                          _p_mul(self.den, o.den), self._merge_kernels(o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._is_one():
            return self
        return Expr._make(self.vars, _p_mul(self.num, o.den),
                          _p_mul(self.den, o.num), self._merge_kernels(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            return Expr._make(self.vars, _p_pow(self.den, -k),
                              _p_pow(self.num, -k), self.kernels)
        return Expr._make(self.vars, _p_pow(self.num, k),
                          _p_pow(self.den, k), self.kernels)

    # -- calculus ------------------------------------------------------------

    def diff(self, name_or_index):
        """The partial derivative; each is taken once per expression and
        the same object is returned after that."""
        i = (name_or_index if isinstance(name_or_index, int)
             else self.vars.index(name_or_index))
        if self._diffs is None:
            self._diffs = {}
        out = self._diffs.get(i)
        if out is None:
            if self.is_polynomial():
                out = self._poly_diff(self.num, i, self.den[0])
            else:
                dn = self._poly_diff(self.num, i)
                dd = self._poly_diff(self.den, i)
                den_e = self._poly_expr(self.den)
                num_e = self._poly_expr(self.num)
                out = (dn * den_e - num_e * dd) / (den_e * den_e)
            self._diffs[i] = out
        return out

    def _poly_diff(self, poly, i, d=1):
        """The derivative of poly / d for a constant d: the terms of
        variable i in one pass (mono - unit is injective, so none of them
        merge), then per monomial those of each kernel atom, in atom
        order."""
        unit = self.vars._units[i]
        s = (unit & -unit).bit_length() - 1
        var_part = {}
        for mono, c in poly.items():
            e = ((mono if mono.__class__ is int else mono.v) >> s) & _FIELD
            if e:
                var_part[mono - unit] = c * e
        out = self._poly_expr(var_part, d)
        for mono, c in poly.items():
            if mono.__class__ is int:
                continue
            for atom, e in mono.k:
                da = self._atom_diff(atom, i)
                if da.is_structural_zero():
                    continue
                rest = mono - _KMono(self.vars._degree_unit, ((atom, 1),))
                term = self._poly_expr({rest: c * e}, d)
                out = out + term * da
        return out

    def _atom_diff(self, atom, i):
        if atom[0] == 0:
            return Expr.one(self.vars) if atom[1] == i else Expr.zero(self.vars)
        kind = atom[1]
        arg = self.kernels[atom]
        da = arg.diff(i)
        if da.is_structural_zero():
            return da
        if kind == "exp":
            return Expr.kernel("exp", arg) * da
        if kind == "sin":
            return Expr.kernel("cos", arg) * da
        if kind == "cos":
            return -(Expr.kernel("sin", arg) * da)
        return da / arg  # ln

    def substitute(self, bindings):
        """Simultaneous substitution; keys are variable names or indices,
        values are Expr or exact numbers.  A kernel atom takes the value of
        the kernel of its substituted argument.  One pass in Z[atoms]: num
        and den are each brought over the common denominator of the values
        they meet, and the quotient is made canonical once."""
        if not bindings:
            return self
        by_index = {}
        for k, v in bindings.items():
            i = k if isinstance(k, int) else self.vars.index(k)
            if not isinstance(v, Expr):
                v = Expr.rational(self.vars, v)
            by_index[i] = v
        values = {(0, i): v for i, v in by_index.items()}   # atom -> value
        for atom in _p_kernel_atoms(self.num) | _p_kernel_atoms(self.den):
            values[atom] = Expr.kernel(
                atom[1], self.kernels[atom].substitute(by_index))
        nn, nd = _p_subst(self.num, values, self.vars)
        dn, dd = _p_subst(self.den, values, self.vars)
        kernels = dict(self.kernels)
        for v in values.values():
            kernels.update(v.kernels)
        return Expr._make(self.vars, _p_mul(nn, dd), _p_mul(nd, dn), kernels)

    def eval(self, point: Point):
        """Exact Fraction when no kernels are hit and the point is rational,
        and always for a constant; float otherwise."""
        c = self.as_rational()
        if c is not None:
            return c
        ints = None if self.kernels else point.integer_form()
        if ints is not None:
            # in integers, with one Fraction at the end
            num_n, num_q = _p_eval_int(self.num, *ints)
            den_n, den_q = _p_eval_int(self.den, *ints)
            if not den_n:
                raise DomainError("denominator vanishes at the point")
            return Fraction(num_n * den_q, num_q * den_n)
        num, den = self._decoded()
        num = self._poly_eval(num, point)
        den = self._poly_eval(den, point)
        if not isinstance(num, float) and not isinstance(den, float):
            if den == 0:
                raise DomainError("denominator vanishes at the point")
            return Fraction(num, den)
        den_f = float(den)
        if den_f == 0.0:
            raise DomainError("denominator vanishes at the point")
        return float(num) / den_f

    def _decoded(self):
        """num and den as tuples of (pairs, coefficient) in dict order, each
        monomial as _mono_pairs gives it; decoded once, for evaluation with
        kernels or at float points."""
        if self._terms is None:
            self._terms = tuple(
                tuple((_mono_pairs(m), c) for m, c in P.items())
                for P in (self.num, self.den))
        return self._terms

    def _poly_eval(self, terms, point):
        """Decoded terms at the point: exact (int or Fraction) until a float
        value is met."""
        total = 0
        for mono, c in terms:
            v = c
            for atom, e in mono:
                if atom[0] == 0:
                    base = point.value(atom[1])
                else:
                    base = self._kernel_eval(atom, point)
                if isinstance(base, float) or isinstance(v, float):
                    v = float(v) * float(base) ** e
                else:
                    v = v * base ** e
            if isinstance(total, float) or isinstance(v, float):
                total = float(total) + float(v)
            else:
                total = total + v
        return total

    def _kernel_eval(self, atom, point):
        kind = atom[1]
        a = self.kernels[atom].eval(point)
        a = float(a)
        if kind == "exp":
            try:
                return math.exp(a)
            except OverflowError:
                raise DomainError("exp overflow") from None
        if kind == "sin":
            return math.sin(a)
        if kind == "cos":
            return math.cos(a)
        if a <= 0:
            raise DomainError(f"ln of non-positive argument {a}")
        return math.log(a)

    # -- zero decision -------------------------------------------------------

    def zeroness(self):
        """Zero iff the canonical form is zero.  Kernel-free expressions are
        decided exactly (the rational function field has no zero divisors);
        with kernels present a rational sampling falsifier seeded by
        FALSIFIER_SEED is used, once per expression, and Inconclusive is
        possible."""
        if self._zero is not None:
            return self._zero
        if not self.num:
            self._zero = Zeroness.ZERO
        elif not self.kernels:
            self._zero = Zeroness.NONZERO
        else:
            self._zero = self._sample_falsify()
        return self._zero

    def _sample_falsify(self):
        rng = random.Random(FALSIFIER_SEED)
        seen_valid = 0
        for _ in range(FALSIFIER_SAMPLES):
            vals = []
            for _ in range(self.vars.total):
                q = rng.randint(1, _FALSIFIER_DEN)
                p = rng.randint(-_FALSIFIER_BOX * q, _FALSIFIER_BOX * q)
                vals.append(Fraction(p, q))
            try:
                v = self.eval(Point(self.vars, vals))
            except DomainError:
                continue
            seen_valid += 1
            if isinstance(v, Fraction):
                if v != 0:
                    return Zeroness.NONZERO
            elif abs(v) > FALSIFIER_TOL:
                return Zeroness.NONZERO
        return Zeroness.INCONCLUSIVE

    # -- printing ------------------------------------------------------------

    def __str__(self):
        """num / lc(den) over den / lc(den), or the former alone when den
        is a constant."""
        if self._str is None:
            lc = self.den[_p_leading(self.den)]
            if not self.num:
                self._str = "0"
            elif self.is_polynomial():
                self._str = self._poly_str(self.num, lc)
            else:
                self._str = (f"({self._poly_str(self.num, lc)})"
                             f"/({self._poly_str(self.den, lc)})")
        return self._str

    def __repr__(self):
        return f"Expr({self})"

    def _poly_str(self, poly, lc):
        """The terms in descending order.  Each monomial's nonzero fields
        are read from the packed int as _mono_pairs reads them, and each
        (variable, exponent) factor is formatted once per call."""
        names = self.vars.names
        last = len(names) - 1
        below_degree = self.vars._degree_unit - 1
        factors = {}    # a packed field (exponent << shift) -> its factor
        out = []
        for m in sorted(poly, reverse=True):
            c = poly[m]
            if m.__class__ is int:
                v, tail = m & below_degree, ()
            else:
                v, tail = m.v & below_degree, m.k
            body = []
            while v:
                s = (v.bit_length() - 1) & -_W
                e = v >> s
                field = e << s
                v -= field
                text = factors.get(field)
                if text is None:
                    name = names[last - s // _W]
                    text = factors[field] = name if e == 1 else f"{name}^{e}"
                body.append(text)
            for atom, e in tail:
                text = self._atom_str(atom)
                body.append(text if e == 1 else f"{text}^{e}")
            coeff = Fraction(abs(c), lc) if lc != 1 else abs(c)
            if out:
                out.append(" - " if c < 0 else " + ")
            elif c < 0:
                out.append("-")
            if not body:
                out.append(str(coeff))
            elif coeff == 1:
                out.append("*".join(body))
            else:
                out.append(f"{coeff}*{'*'.join(body)}")
        return "".join(out)

    def _atom_str(self, atom):
        if atom[0] == 0:
            return self.vars.names[atom[1]]
        return f"{atom[1]}({self.kernels[atom]})"


# ---------------------------------------------------------------------------
# parser: precedence `^` > unary minus > `*` `/` > `+` `-`, `^` restricted to
# integer literal exponents
# ---------------------------------------------------------------------------

_TOK_NUM = "number"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_TOK_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append((_TOK_END, "", len(text)))
    return toks


class _Parser:
    def __init__(self, text, vars):
        self.text = text
        self.vars = vars
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val, at = self.next()
        if kind != _TOK_OP or val != op:
            raise ExprSyntaxError(f"expected {op!r}", at, expected={op})

    def parse(self):
        e = self.sum()
        kind, val, at = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(f"unexpected {val!r}", at, expected={"end of input"})
        return e

    def sum(self):
        e = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                rhs = self.product()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def product(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.next()
                rhs = self.unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "-":
            self.next()
            return -self.unary()
        if kind == _TOK_OP and val == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, at = self.peek()
        if kind == _TOK_OP and val == "^":
            self.next()
            e = self.int_literal()
            kind2, val2, at2 = self.peek()
            if kind2 == _TOK_OP and val2 == "^":
                raise ExprSyntaxError("exponent must be a single integer literal",
                                      at2, expected={"operator", "end of input"})
            return base ** e
        return base

    def int_literal(self):
        sign = 1
        kind, val, at = self.peek()
        if kind == _TOK_OP and val == "-":
            self.next()
            sign = -1
            kind, val, at = self.peek()
        if kind != _TOK_NUM or "." in val:
            raise ExprSyntaxError("exponent must be an integer literal", at,
                                  expected={"integer"})
        self.next()
        return sign * int(val)

    def atom(self):
        kind, val, at = self.next()
        if kind == _TOK_NUM:
            if "." in val:
                return Expr.rational(self.vars, Fraction(val))
            return Expr.rational(self.vars, int(val))
        if kind == _TOK_NAME:
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == _TOK_OP and nxt_val == "(":
                if val not in KERNEL_NAMES:
                    raise ExprSyntaxError(
                        f"unknown function {val!r}", at, expected=KERNEL_NAMES)
                self.next()
                arg = self.sum()
                self.expect_op(")")
                return Expr.kernel(val, arg)
            if val not in self.vars._index:
                raise UnknownVariable(val, at)
            return Expr.var(self.vars, val)
        if kind == _TOK_OP and val == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected {val!r}", at,
                              expected={"number", "variable", "("})


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------

def parse_expr(text: str, vars: VariableSpace) -> Expr:
    return _Parser(text, vars).parse()


def float_at(e: Expr, p: Point) -> float:
    """The value of e at p as a float, for a row of a pointwise matrix; a
    value beyond float range raises DomainError naming e.  A constant, and
    a kernel-free e at a rational point, is divided as integers, which
    rounds correctly, as float(e.eval(p)) does, without normalizing a
    Fraction first."""
    num, den = e.num, e.den
    try:
        if not num:
            return 0.0
        if _is_const(num) and _is_const(den):
            return num[0] / den[0]
        ints = None if e.kernels else p.integer_form()
        if ints is None:
            return float(e.eval(p))
        num_n, num_q = _p_eval_int(num, *ints)
        den_n, den_q = ((den[0], 1) if _is_const(den)
                        else _p_eval_int(den, *ints))
        if not den_n:
            raise DomainError("denominator vanishes at the point")
        if not num_n:
            return 0.0
        n, q = num_n * den_q, num_q * den_n
        return n / q if q > 0 else -n / -q
    except OverflowError:
        raise DomainError(
            f"the value of '{e}' at a point is beyond float range") from None


def product_terms(e: Expr, factor: Expr):
    """Yield the terms of the polynomial e * factor, for a monomial
    `factor` (one term), as (monomial, coefficient) pairs read off the
    packed form with no Expr built: each monomial is a hashable key, equal
    exactly for equal monomials, kernel atoms included, and each
    coefficient is an int or a Fraction."""
    if not _is_const(e.den):
        raise ValueError("terms of a rational function")
    (shift, k), = factor.num.items()
    d = e.den[0] * factor.den[0]
    for m, c in e.num.items():
        if shift:
            m = m + shift
            _check_fields(m)
        c *= k
        yield m, (c if d == 1 else Fraction(c, d))


# ---------------------------------------------------------------------------
# row scalings for fraction-free elimination over the function field
# ---------------------------------------------------------------------------

def denominator_lcm(exprs) -> Expr:
    """A polynomial multiple of every denominator of `exprs`, so that
    multiplying by it clears them; one when every expression is a
    polynomial.  Built left to right over the expressions whose denominator
    is not constant: a running L times den / g, g = gcd(L, den) with its
    integer content multiplied back, and divided by the leading coefficient
    of each such denominator, once per expression, repeats included.  So it
    is the least common multiple of the denominators up to a rational
    factor that depends on how many expressions share a denominator:
    1/(2*x1 + 1) gives x1 + 1/2, with x2/(2*x1 + 1) 1/2*x1 + 1/4, and with
    x3/(2*x1 + 1) as well 1/4*x1 + 1/8."""
    exprs = list(exprs)
    L, scale_n, scale_d = _ONE, 1, 1  # the lcm is L * scale_n / scale_d
    kernels = {}
    for e in exprs:
        if not e.is_polynomial():
            g, _, q = _ip_cofactors(L, e.den)
            L = _p_mul(L, q)
            scale_n *= _int_content(g)
            scale_d *= e.den[_p_leading(e.den)]
            kernels.update(e.kernels)
    return Expr._make(exprs[0].vars, _int_multiply(L, scale_n),
                      {0: scale_d}, kernels)


def divide_by_gcd(exprs):
    """Polynomials `exprs` divided by the gcd of their numerators, taken
    content-free with a positive grlex leading coefficient; an entry that
    alone is nonzero is divided by its monic part, leaving its leading
    coefficient.  The list itself when the gcd is a constant."""
    g = None
    quotients = {}  # entry index -> numerator / g
    for i, e in enumerate(exprs):
        if not e.num:
            continue
        if g is None:
            if _is_const(e.num):
                return exprs
            g, quotients[i] = e.num, _ONE
            continue
        g, shrink, q = _ip_cofactors(g, e.num)
        if _is_const(g):
            return exprs
        if not _is_unit(shrink):
            # the running gcd lost the factor `shrink`
            quotients = {j: _p_mul(p, shrink) for j, p in quotients.items()}
        quotients[i] = q
    if g is None:
        return exprs
    if len(quotients) == 1:
        (i, _), = quotients.items()
        lead = {0: g[_p_leading(g)]}
        return [Expr._make(e.vars, lead, e.den, {}) if j == i else e
                for j, e in enumerate(exprs)]
    c = _int_content(g)
    return [Expr._make(e.vars, _int_multiply(quotients[i], c), e.den,
                       e.kernels) if i in quotients else e
            for i, e in enumerate(exprs)]


def divide_by_factors(exprs, factors):
    """Polynomials `exprs` divided by each of `factors`, as often as it
    divides every entry, so that `divide_by_gcd` of the result is
    `divide_by_gcd(exprs)` (whenever the heuristic gcd settles both) and
    its gcd sees only the cofactors.

    A factor counts by its numerator taken content-free with a positive
    grlex leading coefficient, as the gcd there is taken; constants are
    skipped.  A row with fewer than two nonzero entries is returned as it
    is, since `divide_by_gcd` keeps the leading coefficient of a lone
    entry; so is a row that no factor divides.  Callers pass the factors
    they know a row may hold: the Bareiss and completing pivots of an
    echelon, the owner row's entries of <I, dt>, and the base elements of
    a derived step's shared denominator, which over-clears its rows."""
    nums = [e.num for e in exprs if e.num]
    if len(nums) < 2:
        return exprs
    divided = False
    for f in factors:
        F = f.num
        if not F or _is_const(F):
            continue
        c = _int_content(F)
        F = _int_divide(F, -c if F[_p_leading(F)] < 0 else c)
        while (quotients := _divide_all(nums, F)) is not None:
            nums, divided = quotients, True
    if not divided:
        return exprs
    it = iter(nums)
    return [Expr._make(e.vars, next(it), e.den, e.kernels) if e.num else e
            for e in exprs]


def _divide_all(nums, F):
    """[P / F for P in nums], or None when F does not divide every P.  The
    grlex-greatest and -least terms of a product are the products of its
    factors' ones, so those of each P are checked before any division."""
    lf, tf = _p_leading(F), min(F)
    for P in nums:
        lp, tp = _p_leading(P), min(P)
        if (_mono_divides(lf, lp) is None or P[lp] % F[lf]
                or _mono_divides(tf, tp) is None or P[tp] % F[tf]):
            return None
    quotients = []
    for P in nums:
        q = _ip_divexact(P, F)
        if q is None:
            return None
        quotients.append(q)
    return quotients


def signed_content(e: Expr) -> Fraction:
    """c with e = c * P / Q for P and Q primitive in Z[atoms] with positive
    leading coefficients: the sign of e's leading coefficient times its
    rational content.  ValueError for zero."""
    c = Fraction(_int_content(e.num), _int_content(e.den))
    return c if e.num[_p_leading(e.num)] > 0 else -c


def exact_quotient(e: Expr, d: Expr) -> Expr:
    """e / d for polynomials e and d, by one exact division of their
    primitive parts when d divides e, as it does in fraction-free
    elimination."""
    if not e.num or d._is_one():
        return e
    q = _ip_divexact(_int_primitive(e.num), _int_primitive(d.num))
    if q is None:
        return e / d
    # q is primitive, so reducing the scalar makes the form canonical
    return Expr._make(e.vars,
                      _int_multiply(q, _int_content(e.num) * d.den[0]),
                      {0: _int_content(d.num) * e.den[0]},
                      {**e.kernels, **d.kernels})


def primitive_factor_base(exprs):
    """The primitive parts of nonzero polynomials `exprs`, as a factor base.

    Returns (base, factored).  Each input's primitive part (content-free,
    with a positive grlex leading coefficient) is one base element, so
    associates (f, -f, 3f) share one, and constants have none.  `base` is
    sorted by `Expr.key`, so it does not depend on the order of the inputs.
    factored[i] is (unit, powers), a Fraction and a dict {base element: 1}
    (empty for a constant), with exprs[i] equal to unit times the product
    of the powers.  No gcd is taken, so the base need not be pairwise
    coprime: x1*f and f are two elements."""
    base, factored = {}, []
    for e in exprs:
        if not e.num or not e.is_polynomial():
            raise ValueError("a factor base takes nonzero polynomials")
        c = _int_content(e.num)
        if e.num[_p_leading(e.num)] < 0:
            c = -c
        p = _int_divide(e.num, c)
        powers = {}
        if not _is_const(p):
            b = Expr._make(e.vars, p, _ONE, e.kernels)
            powers[base.setdefault(b, b)] = 1
        factored.append((Fraction(c, e.den[0]), powers))
    return sorted(base, key=Expr.key), factored
