"""Intersection lattices of integer hyperplane arrangements in P^n:
(dimension, multiplicity) stratification, near-pencil detection, the
crepant-resolvability criterion, blow-up scheduling, and good-reduction
analysis.

Flats are enumerated over Q only.  Whether the lattice survives reduction
mod p is read off the square minors of the coefficient matrix, scanned
once per arrangement: the F_p lattice is the rational one exactly when p
divides no nonzero gcd of the maximal minors of a set of hyperplanes.

Arrangements here are unions of hyperplanes, so every flat is a linear
subspace and the smooth-intersection requirement on arrangements of
general divisors holds automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from operator import index

from .arith import is_prime, minors_by_size, require_odd_prime


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane of P^n, built from any nonzero integer vector on its
    line and held as `coeffs`, the line's primitive vector with positive
    lead: equal lines give equal Hyperplanes, and no row vanishes mod p.
    A non-integer coefficient is a TypeError, the zero vector a ValueError.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        v = [index(c) for c in self.coeffs]
        if not any(v):
            raise ValueError("zero vector is not a hyperplane")
        object.__setattr__(self, "coeffs", _pivot_q(v))


@dataclass(frozen=True)
class Arrangement:
    """N distinct hyperplanes in P^dim, held as a tuple; a non-integer dim or
    an entry that is not a `Hyperplane` is a TypeError.  A row of the wrong
    length, or a repeat, is a ValueError naming its rows by 0-based index."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", index(self.dim))
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        first = {}
        for i, h in enumerate(self.hyperplanes):
            if not isinstance(h, Hyperplane):
                raise TypeError(f"{h!r} is not a Hyperplane")
            if len(h.coeffs) != self.dim + 1:
                raise ValueError(f"hyperplane {i}, {h.coeffs}, has {len(h.coeffs)} coordinates, expected {self.dim + 1}")
            if first.setdefault(h, i) != i:
                raise ValueError(f"hyperplanes must be pairwise distinct: {first[h]} and {i} are both {h.coeffs}")

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Arrangement":
        return cls(dim, tuple(Hyperplane(tuple(r)) for r in rows))

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def coefficient_matrix(self) -> list[list[int]]:
        return [list(h.coeffs) for h in self.hyperplanes]


def parse_arrangement(text: str) -> Arrangement:
    """Text format: first line `n N`, then N lines of n+1 integers; an error
    in a row names the row by its 0-based index."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty arrangement file")
    try:
        n, count = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}: expected `n N`") from None
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} hyperplane rows, found {len(lines) - 1}")
    hyperplanes = []
    for i, ln in enumerate(lines[1:]):
        try:
            hyperplanes.append(Hyperplane(tuple(map(int, ln.split()))))
        except ValueError as exc:
            raise ValueError(f"hyperplane {i}: {exc}") from None
    return Arrangement(n, tuple(hyperplanes))


def load_arrangement(path) -> Arrangement:
    with open(path, encoding="ascii") as fh:
        return parse_arrangement(fh.read())


@dataclass(frozen=True)
class Stratum:
    """A flat cut out by >= 2 hyperplanes of the arrangement.

    mask: the bitmask of every hyperplane containing the flat, bit i for
    the arrangement's hyperplane i.  Their forms span the flat's defining
    space, so the mask determines the flat, and containment of flats is
    subset testing on the masks.  `hyperplanes` (the set bits, ascending)
    and `mult` (their number) are read off it.

    basis: primitive integer rows of the reduced echelon form over Q of
    the defining linear forms, in pivot-column order, kept reduced by the
    flat engine as each rank step adds a row -- the canonical key for the
    flat, the same for any spanning set of rows.

    covers: masks, ascending, of the strata one dimension up that contain
    this one -- its cover edges in the intersection lattice.  Single
    hyperplanes are not strata, so a flat of two hyperplanes has no
    covers; were they kept, each (n-2, 2) flat would sit on a
    one-hyperplane flat and read as near-pencil.

    near_pencil: some cover has exactly one hyperplane fewer.
    """

    basis: tuple[tuple[int, ...], ...]
    dim: int
    mask: int
    near_pencil: bool = False
    covers: tuple[int, ...] = ()

    @property
    def hyperplanes(self) -> tuple[int, ...]:
        return tuple([i for i in range(self.mask.bit_length()) if self.mask >> i & 1])

    @property
    def mult(self) -> int:
        return self.mask.bit_count()


def _pivot_col(v) -> int:
    """The column of the first nonzero entry of v."""
    col = 0
    while not v[col]:
        col += 1
    return col


def _pivot_q(v) -> tuple[int, ...]:
    """The primitive integer vector with positive lead spanning v's line."""
    g = gcd(*v)
    for lead in v:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple([x // g for x in v])


def _reduce_q(v, w, col: int) -> tuple[int, ...]:
    """Clear column `col` of v with w, fraction-free, then `_pivot_q`."""
    a, b = w[col], v[col]
    return _pivot_q([a * x - b * y for x, y in zip(v, w)])


def intersection_poset(arr: Arrangement) -> list[Stratum]:
    """All flats obtainable as intersections of >= 2 hyperplanes, by one
    fraction-free elimination over Q.

    Flats are built one rank at a time, starting from the whole space
    (mask 0), and keyed by the bitmask of the hyperplanes containing them.
    Each flat carries its basis in reduced echelon form (rows primitive
    with positive lead, each zero on the pivot columns of the others) and
    the residuals of the forms of the hyperplanes not containing it: each
    reduced to zero on every pivot column, then scaled by `_pivot_q` to a
    canonical representative of its line.  Two such residuals span the
    same space over the flat exactly when they are equal, so the flat
    keeps them grouped, each distinct residual with the mask of its
    hyperplanes, and each group w gives a covering flat with its full
    hyperplane set.  Every parent of a flat reaches it this way; the first
    builds it, clearing the new pivot column `col` of w by fraction-free
    `_reduce_q(r, w, col)` from its own basis rows and from the other
    groups' residuals, only where the column is nonzero (a row zero there
    is already reduced), merging the groups whose residuals become equal,
    and adding w to the basis.  Each later parent only adds a cover edge.

    A flat's basis is thus the canonical key of its defining space, the
    same for any spanning set of rows.  Multiplicity is the full
    containing-hyperplane count, dimension is n - rank; empty
    intersections (rank n+1) are never built.  A flat's covers are its
    parents, none at rank 2, where the parents are single hyperplanes.
    Strata are ordered by descending dimension, then multiplicity, then
    basis.

    Over F_p no flat is enumerated: `poset_matches_mod_p` decides from
    the minors whether the F_p lattice is this one.
    """
    n = arr.dim
    level = {0: ((), {h.coeffs: 1 << i for i, h in enumerate(arr.hyperplanes)}, [])}
    strata = []
    for rank in range(1, n + 1):
        nxt = {}
        for mask, (basis, groups, _) in level.items():
            for w, add in groups.items():
                child = mask | add
                if child in nxt:
                    nxt[child][2].append(mask)
                    continue
                col = _pivot_col(w)
                rows = [_reduce_q(r, w, col) if r[col] else r for r in basis]
                rows.append(w)
                rest: dict[tuple[int, ...], int] = {}
                if rank < n:  # a rank-n flat is a point: one more hyperplane empties it
                    for r, m in groups.items():
                        if m != add:
                            if r[col]:
                                r = _reduce_q(r, w, col)
                            rest[r] = rest.get(r, 0) | m
                nxt[child] = (tuple(sorted(rows, key=_pivot_col)), rest, [mask])
        if rank > 1:  # a rank-1 flat is a single hyperplane
            for mask, (basis, _, parents) in nxt.items():
                covers = tuple(sorted(parents)) if rank > 2 else ()
                near = any(c.bit_count() == mask.bit_count() - 1 for c in covers)
                strata.append(Stratum(basis, n - rank, mask, near, covers))
        level = nxt
    strata.sort(key=lambda s: (-s.dim, s.mult, s.basis))
    return strata


def admissible(dim: int, mult: int, ambient: int) -> bool:
    """The crepancy condition for blowing up a (dim, mult) center in P^ambient."""
    return mult // 2 == ambient - dim - 1


@dataclass(frozen=True)
class TypeRow:
    label: str
    dim: int
    mult: int
    count: int
    near_pencil: bool
    admissible: bool
    incidence: tuple[int, ...]
    incidence_uniform: bool


@dataclass(frozen=True)
class Classification:
    rows: tuple[TypeRow, ...]
    resolvable: bool
    violators: tuple[Stratum, ...]

    @property
    def census(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((r.dim, r.mult, r.count) for r in self.rows)

    def to_jsonable(self) -> dict:
        return {
            "types": [
                {
                    "label": r.label,
                    "dim": r.dim,
                    "mult": r.mult,
                    "count": r.count,
                    "near_pencil": r.near_pencil,
                    "admissible": r.admissible,
                    "incidence": list(r.incidence),
                    "incidence_uniform": r.incidence_uniform,
                }
                for r in self.rows
            ],
            "resolvable": self.resolvable,
        }


def classify(arr: Arrangement, poset: list[Stratum]) -> Classification:
    """Group strata into types, ordered by descending dimension then
    ascending multiplicity; report counts, flags, and incidence counts.

    The grouping key is (dim, mult); a (dim, mult) class whose members
    disagree on the near-pencil flag is split into two rows so every
    row's flags are exact.  The incidence columns count, for each
    stratum, the strata of every positive-dimensional type strictly
    containing it: its up-set, which is its covers together with their
    up-sets, built in one pass by descending dimension.  A type's vector
    is reported when it is constant across the type (incidence_uniform),
    with -1 sentinels otherwise.
    """
    n = arr.dim
    # key: (dim, mult, near_pencil); sorts like (dim, mult) when flags are constant
    type_of = {s.mask: (s.dim, s.mult, s.near_pencil) for s in poset}
    type_keys = sorted(set(type_of.values()), key=lambda t: (-t[0], t[1], t[2]))
    # every stratum strictly containing another has positive dimension
    column = {t: i for i, t in enumerate(t for t in type_keys if t[0] >= 1)}
    vectors: dict[tuple[int, int, bool], list[tuple[int, ...]]] = {t: [] for t in type_keys}
    up: dict[int, set[int]] = {}
    for s in sorted(poset, key=lambda s: -s.dim):
        above = set(s.covers)
        for c in s.covers:
            above |= up[c]
        up[s.mask] = above
        counts = [0] * len(column)
        for m in above:
            counts[column[type_of[m]]] += 1
        vectors[(s.dim, s.mult, s.near_pencil)].append(tuple(counts))

    rows = []
    for idx, key in enumerate(type_keys, start=1):
        distinct = set(vectors[key])
        uniform = len(distinct) == 1
        rows.append(
            TypeRow(
                label=f"T{idx}",
                dim=key[0],
                mult=key[1],
                count=len(vectors[key]),
                near_pencil=key[2],
                admissible=admissible(key[0], key[1], n),
                incidence=distinct.pop() if uniform else (-1,) * len(column),
                incidence_uniform=uniform,
            )
        )
    violators = crepant_resolvable(arr, poset)
    return Classification(tuple(rows), not violators, tuple(violators))


def incidence_count_breaks(rows) -> list[tuple[int, int]]:
    """The types (dim, mult) of dimension <= top - 2 whose incidence vector
    breaks the pair or the triple count, where `rows` are (dim, mult,
    incidence) in table order, the incidence columns being the
    positive-dimensional rows in that order and top their largest
    dimension.

    Every pair of the m hyperplanes through a stratum spans one flat of
    dimension top, which holds C(mult, 2) of the pairs, so C(m, 2) is the
    sum of C(mult, 2) N over the columns of dimension top.  When every type
    of dimension top has multiplicity 2, every triple has rank 3 and spans
    one flat of dimension top - 1, so C(m, 3) is the sum of C(mult, 3) N
    over those columns.  Any other type of dimension top is a ValueError.
    """
    rows = list(rows)
    columns = [(dim, mult) for dim, mult, _ in rows if dim >= 1]
    top = max(dim for dim, _ in columns)
    if any(dim == top and mult != 2 for dim, mult in columns):
        raise ValueError(f"a type of dimension {top} meets three hyperplanes: triples need not have rank 3")
    breaks = []
    for dim, mult, incidence in rows:
        pairs = sum(comb(m, 2) * n for (d, m), n in zip(columns, incidence) if d == top)
        triples = sum(comb(m, 3) * n for (d, m), n in zip(columns, incidence) if d == top - 1)
        if dim <= top - 2 and (pairs, triples) != (comb(mult, 2), comb(mult, 3)):
            breaks.append((dim, mult))
    return breaks


def crepant_resolvable(arr: Arrangement, poset: list[Stratum]) -> list[Stratum]:
    """The strata neither near-pencil nor admissible: none iff crepant-resolvable."""
    return [s for s in poset if not (s.near_pencil or admissible(s.dim, s.mult, arr.dim))]


@dataclass(frozen=True)
class BlowUpStep:
    stratum: Stratum
    adds_exceptional: bool  # branch divisor picks up E exactly when mult is odd


def resolution_schedule(arr: Arrangement, poset: list[Stratum]) -> list[BlowUpStep]:
    """The first stage of the crepant resolution: the lattice's own
    non-near-pencil strata by ascending dimension (ties by canonical
    basis), each annotated with the branch-divisor update
    D* = s*D - 2 floor(m/2) E.  Only resolvable arrangements are accepted.

    It leaves out the secondary double loci where the exceptional divisor
    of an odd-multiplicity center, which joins the branch locus, meets the
    strict transforms of the hyperplanes through it.  For the six lines
    of the bundled sextic (3 double, 4 triple points) the double cover
    after this stage keeps 12 A1 points and has e = 12, not the K3's 24.
    """
    violators = crepant_resolvable(arr, poset)
    if violators:
        raise ValueError(f"arrangement is not crepant-resolvable: {len(violators)} violating strata")
    centers = sorted(
        (s for s in poset if not s.near_pencil), key=lambda s: (s.dim, s.basis)
    )
    return [BlowUpStep(s, s.mult % 2 == 1) for s in centers]


# ---------------------------------------------------------------------------
# Good reduction


@dataclass(frozen=True)
class GoodReductionReport:
    all_unimodular: bool  # every minor of the coefficient matrix in {0, +-1}
    exceptional_odd_primes: tuple[int, ...]
    max_abs_minor: int


@lru_cache(maxsize=128)
def _minor_scan(arr: Arrangement) -> tuple[int, frozenset[int]]:
    """Every square minor (all sizes) of the N x (n+1) coefficient matrix,
    from one level-by-level Laplace pass (`arith.minors_by_size`).

    Returns the largest |minor| and the distinct nonzero g_R, where g_R is
    the gcd of the |R| x |R| minors of the row set R (zero exactly when R
    is dependent over Q).  Nothing is factored; `good_reduction_report`
    and every `poset_matches_mod_p` read the one scan.
    """
    values: set[int] = set()  # signed: abs is taken once per distinct value
    gcds: set[int] = set()
    for _, level in minors_by_size(arr.coefficient_matrix()):
        for minors in level.values():
            values.update(minors.values())
            gcds.add(gcd(*minors.values()))
    gcds.discard(0)
    return max(map(abs, values), default=0), frozenset(gcds)


def good_reduction_report(arr: Arrangement) -> GoodReductionReport:
    """The minors of the coefficient matrix, from the cached `_minor_scan`.

    Minors in {0, +-1} force the mod-p stratification to agree with the
    rational one at every odd prime.  The exceptional odd primes are
    exactly those where it changes, the odd p for which
    `poset_matches_mod_p` is false: the odd prime divisors of the
    distinct nonzero g_R.  Each g_R is factored once, by trial division
    below 1000 and then Pollard's rho, each piece proved prime by
    `is_prime`; a piece at or above `PRIMALITY_LIMIT` raises ValueError.
    """
    max_abs, gcds = _minor_scan(arr)
    exceptional = {q for g in gcds if g > 1 for q in _odd_prime_divisors(g)}
    return GoodReductionReport(max_abs <= 1, tuple(sorted(exceptional)), max_abs)


def _odd_prime_divisors(v: int) -> set[int]:
    """The odd primes dividing v > 0: trial division by the odd q < 1000,
    then Pollard's rho (x -> x^2 + c from x = 2, Floyd's cycle test,
    c = 1, 2, ...) splits every piece that `is_prime` rejects; `is_prime`
    raises for a piece it cannot decide."""
    while v % 2 == 0:
        v //= 2
    found = set()
    q = 3
    while q < 1000 and q * q <= v:
        if v % q == 0:
            found.add(q)
            while v % q == 0:
                v //= q
        q += 2
    pieces = [v] if v > 1 else []
    while pieces:
        n = pieces.pop()
        if is_prime(n):
            found.add(n)
            continue
        c, d = 0, n
        while d == n:  # the cycle closed on n itself: the next c
            c += 1
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                d = gcd(x - y, n)
        pieces += [d, n // d]
    return found


@dataclass(frozen=True)
class ModPComparison:
    equal: bool


def poset_matches_mod_p(arr: Arrangement, p: int, poset: list[Stratum]) -> ModPComparison:
    """Whether the F_p intersection poset equals the rational one.

    Flats on both sides are identified with their containing-hyperplane
    sets, so the posets are equal exactly when every set of hyperplanes
    keeps its rank mod p: when every set independent over Q stays
    independent over F_p (ranks only drop mod p).  A set R of rows is
    independent exactly when its maximal minors have a nonzero gcd g_R,
    and stays so mod p exactly when p does not divide g_R.  So the answer
    is read off the cached minor scan, a divisibility test per distinct
    g_R, and `poset`, which the rational side would give, is not read.
    Two hyperplanes that coincide mod p are an independent pair with p
    dividing g_R, so they never compare equal, even when both posets are
    empty.  Nothing is factored.
    """
    require_odd_prime(p)
    return ModPComparison(all(g % p for g in _minor_scan(arr)[1]))
