"""Intersection lattices of integer hyperplane arrangements in P^n:
(dimension, multiplicity) stratification, near-pencil detection, the
crepant-resolvability criterion, blow-up scheduling, and good-reduction
analysis.

Arrangements here are unions of hyperplanes, so every flat is a linear
subspace and the smooth-intersection requirement on arrangements of
general divisors holds automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, gcd

from .arith import minors_by_size, require_odd_prime


@dataclass(frozen=True)
class Hyperplane:
    """Primitive, sign-normalized integer coefficient vector in P^n."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "Hyperplane":
        v = [int(c) for c in coeffs]
        if not any(v):
            raise ValueError("zero vector is not a hyperplane")
        return cls(_pivot_q(v))


@dataclass(frozen=True)
class Arrangement:
    """N distinct hyperplanes in P^dim."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        for h in self.hyperplanes:
            if len(h.coeffs) != self.dim + 1:
                raise ValueError(
                    f"hyperplane {h.coeffs} has {len(h.coeffs)} coordinates, "
                    f"expected {self.dim + 1}"
                )
        if len(set(self.hyperplanes)) != len(self.hyperplanes):
            raise ValueError("hyperplanes must be pairwise distinct")

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Arrangement":
        return cls(dim, tuple(Hyperplane.from_coeffs(r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def coefficient_matrix(self) -> list[list[int]]:
        return [list(h.coeffs) for h in self.hyperplanes]


def parse_arrangement(text: str) -> Arrangement:
    """Text format: first line `n N`, then N lines of n+1 integers."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty arrangement file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}: expected `n N`")
    n, count = int(head[0]), int(head[1])
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} hyperplane rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = [int(tok) for tok in ln.split()]
        if len(entries) != n + 1:
            raise ValueError(f"row {ln!r} has {len(entries)} entries, expected {n + 1}")
        rows.append(entries)
    return Arrangement.from_rows(n, rows)


def load_arrangement(path) -> Arrangement:
    with open(path, encoding="ascii") as fh:
        return parse_arrangement(fh.read())


@dataclass(frozen=True)
class Stratum:
    """A flat cut out by >= 2 hyperplanes of the arrangement.

    hyperplanes: indices of every hyperplane containing the flat.  Their
    forms span the flat's defining space, so this set (or `mask`, the
    same set as a bitmask) determines the flat, and containment of flats
    is subset testing on the masks.

    basis: primitive integer rows of the reduced echelon form over Q of
    the defining linear forms, back-substituted from the pivot rows of
    the flat engine -- the canonical key for the flat, the same for any
    spanning set of rows.

    covers: masks, ascending, of the strata one dimension up that contain
    this one -- its cover edges in the intersection lattice.  Single
    hyperplanes are not strata, so a flat of two hyperplanes has no
    covers; were they kept, each (n-2, 2) flat would sit on a
    one-hyperplane flat and read as near-pencil.

    near_pencil: some cover has exactly one hyperplane fewer.
    """

    basis: tuple[tuple[int, ...], ...]
    dim: int
    hyperplanes: tuple[int, ...]
    near_pencil: bool = False
    covers: tuple[int, ...] = ()

    @property
    def mult(self) -> int:
        return len(self.hyperplanes)

    @property
    def mask(self) -> int:
        m = 0
        for i in self.hyperplanes:
            m |= 1 << i
        return m


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


def _flats(vectors, n: int, pivot, reduce) -> dict[int, tuple[int, tuple[tuple[int, ...], ...], list[int]]]:
    """Every flat of rank 1..n of the hyperplanes `vectors` (forms on
    k^(n+1)), keyed by the bitmask of the hyperplanes containing it.

    Value: (rank, rows, parents).  rows lists the residual each rank step
    pivoted on, oldest first: each is scaled by `pivot` and is zero on the
    pivot columns of the rows before it, so they are a triangular basis
    of the flat's defining space.  parents are the masks of the flats of
    rank one less that contain it (mask 0, the whole space, for a
    hyperplane): the cover edges of the lattice.

    Flats are built one rank at a time, starting from the whole space
    (mask 0).  A flat keeps the residuals of the forms of the hyperplanes
    not containing it against its triangular basis: each reduced to zero
    on every pivot column, then scaled by `pivot` to a canonical
    representative of its line.  Two such residuals span the same space
    over the flat exactly when they are equal, so the flat keeps them
    grouped, each distinct residual with the mask of its hyperplanes, and
    each group gives a covering flat with its full hyperplane set.  Every
    parent of a flat reaches it this way; the first builds it, clearing
    the other groups' residuals on the new pivot column by
    `reduce(v, w, col)`, once per group and only where the column is
    nonzero (a residual zero there is already reduced), and merging the
    groups whose residuals become equal.  Each later parent only adds its
    mask to the flat's parents.

    `pivot` and `reduce` are the only field-specific inputs: fraction-free
    integer arithmetic for Q, arithmetic mod p for F_p.
    """
    groups: dict[tuple[int, ...], int] = {}
    for i, v in enumerate(vectors):
        v = pivot(v)
        groups[v] = groups.get(v, 0) | 1 << i
    level = {0: ((), groups, [])}
    flats = {}
    for rank in range(1, n + 1):
        nxt = {}
        for mask, (rows, groups, _) in level.items():
            for w, add in groups.items():
                child = mask | add
                if child in nxt:
                    nxt[child][2].append(mask)
                    continue
                rest: dict[tuple[int, ...], int] = {}
                if rank < n:  # a rank-n flat is a point: one more hyperplane empties it
                    col = _pivot_col(w)
                    for r, m in groups.items():
                        if m != add:
                            if r[col]:
                                r = reduce(r, w, col)
                            rest[r] = rest.get(r, 0) | m
                nxt[child] = (rows + (w,), rest, [mask])
        for mask, (rows, _, parents) in nxt.items():
            flats[mask] = (rank, rows, parents)
        level = nxt
    return flats


def _indices(mask: int) -> tuple[int, ...]:
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def intersection_poset(arr: Arrangement) -> list[Stratum]:
    """All flats obtainable as intersections of >= 2 hyperplanes.

    The flats come from the mask-keyed enumerator `_flats` over Q, with
    fraction-free integer reduction.  Each flat's canonical basis is
    its `_flats` rows in reduced echelon form, by back-substitution:
    newest row first, each clears its pivot column from the rows before
    it with `_reduce_q`.  Multiplicity is the full containing-hyperplane
    count, dimension is n - rank; empty intersections (rank n+1) are
    never built.

    A flat's covers are its `_flats` parents, none at rank 2, where the
    parents are single hyperplanes.  Strata are ordered by descending
    dimension, then multiplicity, then basis.
    """
    n = arr.dim
    vectors = [h.coeffs for h in arr.hyperplanes]
    strata = []
    for mask, (rank, rows, parents) in _flats(vectors, n, _pivot_q, _reduce_q).items():
        if rank < 2:  # a single hyperplane
            continue
        covers = tuple(sorted(parents)) if rank > 2 else ()
        near = any(c.bit_count() == mask.bit_count() - 1 for c in covers)
        # each row is zero on the pivot columns of the rows before it, so
        # clearing newest first never refills a cleared column
        rows = list(rows)
        cols = [_pivot_col(w) for w in rows]
        for k in range(rank - 1, 0, -1):
            w, col = rows[k], cols[k]
            for j in range(k):
                if rows[j][col]:
                    rows[j] = _reduce_q(rows[j], w, col)
        basis = tuple(w for _, w in sorted(zip(cols, rows)))
        strata.append(Stratum(basis, n - rank, _indices(mask), near, covers))
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
    ok, violators = crepant_resolvable(arr, poset)
    return Classification(tuple(rows), ok, tuple(violators))


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


def crepant_resolvable(arr: Arrangement, poset: list[Stratum]):
    """True iff every stratum is near-pencil or admissible, plus violators."""
    violators = [s for s in poset if not (s.near_pencil or admissible(s.dim, s.mult, arr.dim))]
    return not violators, violators


@dataclass(frozen=True)
class BlowUpStep:
    stratum: Stratum
    adds_exceptional: bool  # branch divisor picks up E exactly when mult is odd


def resolution_schedule(arr: Arrangement, poset: list[Stratum]) -> list[BlowUpStep]:
    """Blow-up centers in resolution order: all non-near-pencil strata by
    ascending dimension (ties by canonical basis), each annotated with
    the branch-divisor update D* = s*D - 2 floor(m/2) E.

    Strict transforms keep their (dim, mult) and newly created strata
    are near-pencil, so the schedule is computable from the original
    poset; only resolvable arrangements are accepted.
    """
    ok, violators = crepant_resolvable(arr, poset)
    if not ok:
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


def good_reduction_report(arr: Arrangement) -> GoodReductionReport:
    """Every square minor (all sizes) of the N x (n+1) coefficient matrix.

    Minors in {0, +-1} force the mod-p stratification to agree with the
    rational one at every odd prime.  Otherwise the odd primes dividing
    some nonzero minor are the only candidates for a changed poset.  The
    minors come from one level-by-level Laplace pass
    (`arith.minors_by_size`), and each distinct |minor| is factored once.
    """
    values: set[int] = set()
    for _, level in minors_by_size(arr.coefficient_matrix()):
        values.update(map(abs, level.values()))
    max_abs = max(values, default=0)
    exceptional = {q for v in values if v > 1 for q in _odd_prime_divisors(v)}
    return GoodReductionReport(max_abs <= 1, tuple(sorted(exceptional)), max_abs)


def _odd_prime_divisors(v: int):
    v = abs(v)
    while v % 2 == 0:
        v //= 2
    q = 3
    while q * q <= v:
        if v % q == 0:
            yield q
            while v % q == 0:
                v //= q
        q += 2
    if v > 1:
        yield v


@dataclass(frozen=True)
class ModPComparison:
    p: int
    equal: bool


def _monic_mod(p: int, v) -> tuple[int, ...]:
    """The residue vector v scaled to lead coefficient 1 mod p."""
    for lead in v:
        if lead:
            break
    inv = pow(lead, -1, p)
    return tuple([x * inv % p for x in v])


def _reduced_flats(arr: Arrangement, p: int) -> dict[int, int] | None:
    """Flats of the reduced arrangement over F_p, keyed by the bitmask of
    their containing hyperplanes, value = dimension, or None when two
    hyperplanes reduce to the same line mod p; a hyperplane that reduces
    to zero mod p raises ValueError.

    The same mask-keyed enumerator as `intersection_poset`, with every
    residual reduced mod p and scaled to lead coefficient 1.  Each
    hyperplane's form is reduced once, as `_monic_mod`, so two
    hyperplanes coincide mod p exactly when their entries are equal.  Each
    residual of `_flats` is reduced in one pass: v - f w in one list,
    its first nonzero entry found by a plain loop, one inverse, one
    scaling.  The keys are masks, as in `Stratum.mask`, so
    `poset_matches_mod_p` compares the two dicts as they stand.
    """
    require_odd_prime(p)
    lines = []
    for h in arr.hyperplanes:
        v = [c % p for c in h.coeffs]
        if not any(v):
            raise ValueError(f"a hyperplane degenerates to zero mod {p}")
        lines.append(_monic_mod(p, v))
    if len(set(lines)) != len(lines):
        return None

    def reduce(v, w, col: int) -> tuple[int, ...]:
        f = v[col]
        # unreduced, the lead is still exact: v is monic, so it leads before
        # col (where w is 0), after col (f = 0), or at col with f = 1, which
        # leaves every entry in (-p, p); the scaling reduces them all
        u = [x - f * y for x, y in zip(v, w)]
        for lead in u:
            if lead:
                break
        inv = pow(lead, -1, p)
        return tuple([x * inv % p for x in u])

    n = arr.dim
    flats = _flats(lines, n, partial(_monic_mod, p), reduce)
    return {mask: n - rank for mask, (rank, _, _) in flats.items() if rank >= 2}


def poset_matches_mod_p(arr: Arrangement, p: int, poset: list[Stratum]) -> ModPComparison:
    """Compare the F_p intersection poset with the rational one.

    Flats on both sides are identified with their containing-hyperplane
    sets (which span the defining forms), so the posets are equal when
    the same sets occur with the same dimensions.  Both sides are
    {mask: dim}, as `_reduced_flats` returns them and as `Stratum.mask`
    gives them, compared as dicts.  Two hyperplanes that coincide mod p
    never compare equal, even when both posets are empty.
    """
    modp = _reduced_flats(arr, p)
    return ModPComparison(p, modp is not None and modp == {s.mask: s.dim for s in poset})
