"""A 30-digit reference for the crystal-field levels, built without hfspec.

J_z, J_+ and J_- come from their matrix elements, the seven Stevens
operators of an S4 site from their polynomial definitions in J_z, J_+ and
J_- (Stevens 1952; Hutchings 1964), all in exact arithmetic: every entry is
a ``Surd``, a sum of rational multiples of square roots of square-free
integers, because J_+ has the entries sqrt(j(j+1) - M(M+1)).  A q < 0
operator -i(J_+^4 - J_-^4)/2 ... is kept as its real matrix times -i.

H_CF is then solved in mpmath at ``DPS`` digits one M mod 4 sector at a
time: H_CF couples M to M +- 4 only, so each sector is a block of it.
Sectors 0 and 2 hold the G1 and G2 singlets; sector 3 holds the sigma = +1
branch of every G34 doublet and sector 1 its time-reversed partner.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import mpmath

#: decimal digits of every reference solve
DPS = 30
#: the Stevens operator O_k^q, as (k, q), that each coefficient of a config's
#: [cf] section multiplies
COEFFICIENTS = {"b20": (2, 0), "b40": (4, 0), "b44": (4, 4), "b4m4": (4, -4), "b60": (6, 0), "b64": (6, 4),
                "b6m4": (6, -4)}


def _square_free(n: int) -> tuple[int, int]:
    """(s, f) with n = s^2 f and f square-free, for an integer n >= 1."""
    s, f, p = 1, n, 2
    while p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            s *= p
        p += 1
    return s, f


class Surd:
    """c_1 sqrt(r_1) + c_2 sqrt(r_2) + ... with rational c_k and distinct
    square-free integers r_k >= 1; no terms is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {r: c for r, c in (terms or {}).items() if c}

    @classmethod
    def rational(cls, value) -> "Surd":
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt(cls, value) -> "Surd":
        """sqrt(value) for a rational value >= 0: sqrt(p/q) = sqrt(pq)/q."""
        value = Fraction(value)
        if value < 0:
            raise ValueError(f"no real square root of {value}")
        if value == 0:
            return cls()
        s, f = _square_free(value.numerator * value.denominator)
        return cls({f: Fraction(s, value.denominator)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Surd") -> "Surd":
        terms = dict(self.terms)
        for r, c in other.terms.items():
            terms[r] = terms.get(r, 0) + c
        return Surd(terms)

    def __mul__(self, other: "Surd") -> "Surd":
        terms: dict[int, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                # r1 r2 = g^2 (r1 r2 / g^2), square-free since r1 and r2 are
                g = math.gcd(r1, r2)
                r = r1 * r2 // (g * g)
                terms[r] = terms.get(r, 0) + c1 * c2 * g
        return Surd(terms)

    def mpf(self):
        """The value at the working precision of mpmath.mp."""
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r) for r, c in self.terms.items())


# Exact matrices are lists of rows of Surds over the basis M = -j ... +j.


def _zeros(dim: int) -> list[list[Surd]]:
    return [[Surd() for _ in range(dim)] for _ in range(dim)]


def _diagonal(values: list) -> list[list[Surd]]:
    out = _zeros(len(values))
    for k, value in enumerate(values):
        out[k][k] = Surd.rational(value)
    return out


def _add(*terms: tuple[Fraction, list[list[Surd]]]) -> list[list[Surd]]:
    """sum of coefficient * matrix over ``terms``."""
    dim = len(terms[0][1])
    out = _zeros(dim)
    for coefficient, matrix in terms:
        scale = Surd.rational(coefficient)
        for a in range(dim):
            for b in range(dim):
                if matrix[a][b]:
                    out[a][b] = out[a][b] + scale * matrix[a][b]
    return out


def _matmul(left: list[list[Surd]], right: list[list[Surd]]) -> list[list[Surd]]:
    dim = len(left)
    out = _zeros(dim)
    for a in range(dim):
        for c in range(dim):
            if left[a][c]:
                for b in range(dim):
                    if right[c][b]:
                        out[a][b] = out[a][b] + left[a][c] * right[c][b]
    return out


def _transpose(matrix: list[list[Surd]]) -> list[list[Surd]]:
    return [list(column) for column in zip(*matrix)]


def magnetic_numbers(j: Fraction) -> list[Fraction]:
    """M = -j, -j + 1, ..., j."""
    return [-j + k for k in range(int(2 * j) + 1)]


def jz(j: Fraction) -> list[list[Surd]]:
    return _diagonal(magnetic_numbers(j))


def jplus(j: Fraction) -> list[list[Surd]]:
    """<M + 1|J_+|M> = sqrt(j(j + 1) - M(M + 1))."""
    m = magnetic_numbers(j)
    out = _zeros(len(m))
    for k in range(len(m) - 1):
        out[k + 1][k] = Surd.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return out


def jminus(j: Fraction) -> list[list[Surd]]:
    """J_- = J_+^T: J_+ is real."""
    return _transpose(jplus(j))


@cache
def stevens(k: int, q: int, j: Fraction) -> tuple[list[list[Surd]], list[list[Surd]]]:
    """O_k^q as (real part, imaginary part), exact.

    O_2^0 = 3 J_z^2 - X, O_4^0 = 35 J_z^4 - (30 X - 25) J_z^2 + 3 X^2 - 6 X,
    O_6^0 = 231 J_z^6 - (315 X - 735) J_z^4 + (105 X^2 - 525 X + 294) J_z^2
    - 5 X^3 + 40 X^2 - 60 X with X = j(j + 1); O_4^4 = (J_+^4 + J_-^4)/2,
    O_6^4 = [(J_+^4 + J_-^4)(11 J_z^2 - X - 38) + (11 J_z^2 - X - 38)(J_+^4
    + J_-^4)]/4, and for q = -4 the same with -i(J_+^4 - J_-^4) in place of
    (J_+^4 + J_-^4).
    """
    dim = int(2 * j) + 1
    x = j * (j + 1)
    one = _diagonal([1] * dim)
    z = jz(j)
    z2 = _matmul(z, z)
    z4 = _matmul(z2, z2)
    zero = _zeros(dim)
    if q == 0:
        if k == 2:
            return _add((3, z2), (-x, one)), zero
        if k == 4:
            return _add((35, z4), (-(30 * x - 25), z2), (3 * x**2 - 6 * x, one)), zero
        z6 = _matmul(z4, z2)
        return _add((231, z6), (-(315 * x - 735), z4), (105 * x**2 - 525 * x + 294, z2),
                    (-(5 * x**3 - 40 * x**2 + 60 * x), one)), zero
    plus = jplus(j)
    plus4 = _matmul(_matmul(plus, plus), _matmul(plus, plus))
    minus4 = _transpose(plus4)
    # q > 0: J_+^4 + J_-^4; q < 0: -i(J_+^4 - J_-^4), kept as the real matrix
    # multiplying -i
    ladder = _add((1, plus4), (1 if q > 0 else -1, minus4))
    if k == 4:
        real = _add((Fraction(1, 2), ladder))
    else:
        core = _add((11, z2), (-(x + 38), one))
        real = _add((Fraction(1, 4), _matmul(ladder, core)), (Fraction(1, 4), _matmul(core, ladder)))
    return (real, zero) if q > 0 else (zero, _add((-1, real)))


@dataclass(frozen=True)
class Level:
    """One reference CF level: energy above the ground level, irrep,
    degeneracy and <J_z> of the sector-3 branch (None for a singlet)."""

    energy: mpmath.mpf
    irrep: str
    degeneracy: int
    jz: mpmath.mpf | None


def cf_levels(coefficients: dict[str, float], j: int) -> list[Level]:
    """The CF levels of sum B_k^q O_k^q for {name: B_k^q} with the names of
    ``COEFFICIENTS``, each B taken exactly as the float it is, solved at
    ``DPS`` digits, in ascending energy."""
    j = Fraction(j)
    m = magnetic_numbers(j)
    dim = len(m)
    with mpmath.workdps(DPS):
        h = mpmath.zeros(dim, dim)
        for name, value in coefficients.items():
            if value == 0.0:
                continue
            real, imag = stevens(*COEFFICIENTS[name], j)
            b = mpmath.mpf(value)
            for a in range(dim):
                for c in range(dim):
                    if real[a][c] or imag[a][c]:
                        h[a, c] += b * mpmath.mpc(real[a][c].mpf(), imag[a][c].mpf())
        sectors = {s: [a for a in range(dim) if m[a] % 4 == s] for s in range(4)}
        for a in range(dim):
            for c in range(dim):
                assert h[a, c] == 0 or m[a] % 4 == m[c] % 4, "H_CF couples two M mod 4 sectors"
        solved = {}
        for s, rows in sectors.items():
            block = mpmath.matrix([[h[a, c] for c in rows] for a in rows])
            values, vectors = mpmath.eighe(block)
            solved[s] = [(values[n], [vectors[r, n] for r in range(len(rows))]) for n in range(len(rows))]
        # time reversal maps sector 3 onto sector 1: the doublet partners
        partners = sorted(e for e, _ in solved[1])
        for e, partner in zip(sorted(e for e, _ in solved[3]), partners):
            assert abs(e - partner) < mpmath.mpf(10) ** (8 - DPS), "sectors 1 and 3 do not pair up"
        found = [(e, "G1", 1, None) for e, _ in solved[0]] + [(e, "G2", 1, None) for e, _ in solved[2]]
        for e, vector in solved[3]:
            weight = [abs(v) ** 2 for v in vector]
            found.append((e, "G34", 2, mpmath.fsum(w * m[r] for w, r in zip(weight, sectors[3])) / mpmath.fsum(weight)))
        found.sort(key=lambda level: level[0])
        ground = found[0][0]
        return [Level(e - ground, irrep, degeneracy, jz) for e, irrep, degeneracy, jz in found]
