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
from math import gcd

from .arith import all_minors, require_odd_prime


@dataclass(frozen=True)
class Hyperplane:
    """Primitive, sign-normalized integer coefficient vector in P^n."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "Hyperplane":
        v = [int(c) for c in coeffs]
        g = 0
        for c in v:
            g = gcd(g, c)
        if g == 0:
            raise ValueError("zero vector is not a hyperplane")
        v = [c // g for c in v]
        lead = next(c for c in v if c != 0)
        if lead < 0:
            v = [-c for c in v]
        return cls(tuple(v))

    def __str__(self) -> str:
        names = [f"x{i}" for i in range(len(self.coeffs))]
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            if not parts:
                parts.append(f"{'-' if c < 0 else ''}{mag}{name}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {mag}{name}")
        return " ".join(parts)


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

    basis: primitive integer rows of the reduced echelon form of the
    defining linear forms -- the canonical key for the flat, equal to
    `primitive_rows(echelon(rows))` for any spanning set of rows.
    """

    basis: tuple[tuple[int, ...], ...]
    dim: int
    hyperplanes: tuple[int, ...]
    near_pencil: bool = False

    @property
    def mult(self) -> int:
        return len(self.hyperplanes)

    @property
    def mask(self) -> int:
        m = 0
        for i in self.hyperplanes:
            m |= 1 << i
        return m

    @property
    def type_key(self) -> tuple[int, int]:
        return (self.dim, self.mult)


def _lead(v) -> int:
    return next(x for x in v if x)


def _canonical_basis(rows) -> tuple[tuple[int, ...], ...]:
    """`primitive_rows(echelon(rows))` by fraction-free integer elimination.

    Each step replaces a row r by a*r - b*pivot_row and divides out its
    content, so no fractions arise and the entries stay small.
    Once every pivot column is cleared above and below, each pivot row
    is proportional to the matching row of the reduced echelon form over
    Q; scaling it to a primitive vector with positive lead gives exactly
    the primitive form of that row.
    """
    m = [list(row) for row in rows]
    if not m:
        return ()
    piv = 0
    for col in range(len(m[0])):
        for r in range(piv, len(m)):
            if m[r][col]:
                break
        else:
            continue
        m[piv], m[r] = m[r], m[piv]
        prow = m[piv]
        a = prow[col]
        for r, row in enumerate(m):
            b = row[col]
            if r != piv and b:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g else row
        piv += 1
        if piv == len(m):
            break
    return tuple(_pivot_q(row) for row in m[:piv])


def _pivot_q(v) -> tuple[int, ...]:
    """The primitive integer vector with positive lead spanning v's line."""
    g = gcd(*v)
    return tuple(x // g for x in v) if _lead(v) > 0 else tuple(-x // g for x in v)


def _reduce_q(v, w, col: int) -> tuple[int, ...]:
    """Clear column `col` of v with w, fraction-free, then `_pivot_q`."""
    a, b = w[col], v[col]
    return _pivot_q([a * x - b * y for x, y in zip(v, w)])


def _flats(vectors, n: int, pivot, reduce) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Every flat of rank 1..n of the hyperplanes `vectors` (forms on
    k^(n+1)), keyed by the bitmask of the hyperplanes containing it.

    Value: (rank, gens), where gens lists one hyperplane per rank step;
    their forms are a basis of the flat's defining space.

    Flats are built one rank at a time, starting from the whole space
    (mask 0).  A flat keeps, for every hyperplane not containing it, the
    residual of its form against the flat's triangular basis: reduced to
    zero on every pivot column, then scaled by `pivot` to a canonical
    representative of its line.  Two such residuals span the same space
    over the flat exactly when they are equal, so grouping the residuals
    gives each covering flat, with its full hyperplane set, in one pass
    per parent.  A covering flat already reached from another parent is
    skipped; otherwise the residuals of the hyperplanes still outside it
    are cleared on the new pivot column by `reduce(v, w, col)`.

    `pivot` and `reduce` are the only field-specific inputs: fraction-free
    integer arithmetic for Q, arithmetic mod p for F_p.
    """
    level = {0: ((), [(i, pivot(v)) for i, v in enumerate(vectors)])}
    flats = {}
    for rank in range(1, n + 1):
        nxt = {}
        for mask, (gens, residuals) in level.items():
            groups: dict[tuple[int, ...], int] = {}
            for i, r in residuals:
                groups[r] = groups.get(r, 0) | 1 << i
            for w, add in groups.items():
                child = mask | add
                if child in nxt:
                    continue
                first = (add & -add).bit_length() - 1
                rest = []  # a rank-n flat is a point: one more hyperplane empties it
                if rank < n:
                    col = next(c for c, x in enumerate(w) if x)
                    rest = [(i, reduce(r, w, col)) for i, r in residuals if not add >> i & 1]
                nxt[child] = (gens + (first,), rest)
        for mask, (gens, _) in nxt.items():
            flats[mask] = (rank, gens)
        level = nxt
    return flats


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def intersection_poset(arr: Arrangement) -> list[Stratum]:
    """All flats obtainable as intersections of >= 2 hyperplanes.

    The flats come from the mask-keyed enumerator `_flats` over Q, with
    fraction-free integer reduction; each flat's canonical basis is
    computed once, from the forms of its rank generators.  Multiplicity
    is the full containing-hyperplane count, dimension is n - rank;
    empty intersections (rank n+1) are never built.

    A flat is near-pencil when dropping one of its hyperplanes leaves
    the mask of a flat one dimension up.  Strata are ordered by
    descending dimension, then multiplicity, then basis.
    """
    n = arr.dim
    vectors = [h.coeffs for h in arr.hyperplanes]
    flats = {
        mask: info
        for mask, info in _flats(vectors, n, _pivot_q, _reduce_q).items()
        if mask & (mask - 1)  # at least two hyperplanes
    }
    strata = []
    for mask, (rank, gens) in flats.items():
        near = False
        for i in _indices(mask):
            parent = flats.get(mask & ~(1 << i))
            if parent is not None and parent[0] == rank - 1:
                near = True
                break
        basis = _canonical_basis([vectors[i] for i in gens])
        strata.append(Stratum(basis, n - rank, _indices(mask), near))
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
    ambient_dim: int
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


def classify(arr: Arrangement, poset: list[Stratum] | None = None) -> Classification:
    """Group strata into types, ordered by descending dimension then
    ascending multiplicity; report counts, flags, and incidence counts.

    The grouping key is (dim, mult); a (dim, mult) class whose members
    disagree on the near-pencil flag is split into two rows so every
    row's flags are exact.  The incidence columns count, for each
    stratum, the strata of every positive-dimensional type strictly
    containing it; a type's vector is reported when it is constant
    across the type (incidence_uniform), with -1 sentinels otherwise.
    """
    if poset is None:
        poset = intersection_poset(arr)
    n = arr.dim
    # key: (dim, mult, near_pencil); sorts like (dim, mult) when flags are constant
    type_keys = sorted(
        {(s.dim, s.mult, s.near_pencil) for s in poset}, key=lambda t: (-t[0], t[1], t[2])
    )
    positive = [t for t in type_keys if t[0] >= 1]
    pos_index = {t: i for i, t in enumerate(positive)}
    # masks computed once: the incidence scan below is quadratic in strata
    by_type: dict[tuple[int, int, bool], list[int]] = {t: [] for t in type_keys}
    columns = []  # (mask, type column) of every positive-dimensional stratum
    for s in poset:
        key = (s.dim, s.mult, s.near_pencil)
        mask = s.mask
        by_type[key].append(mask)
        if s.dim >= 1:
            columns.append((mask, pos_index[key]))

    def incidence_vector(mask: int) -> tuple[int, ...]:
        counts = [0] * len(positive)
        for other, col in columns:
            if other != mask and other & mask == other:
                counts[col] += 1
        return tuple(counts)

    rows = []
    for idx, key in enumerate(type_keys, start=1):
        members = by_type[key]
        vectors = {incidence_vector(mask) for mask in members}
        uniform = len(vectors) == 1
        vec = vectors.pop() if uniform else tuple(-1 for _ in positive)
        rows.append(
            TypeRow(
                label=f"T{idx}",
                dim=key[0],
                mult=key[1],
                count=len(members),
                near_pencil=key[2],
                admissible=admissible(key[0], key[1], n),
                incidence=vec,
                incidence_uniform=uniform,
            )
        )
    ok, violators = crepant_resolvable_from_poset(poset, n)
    return Classification(n, tuple(rows), ok, tuple(violators))


def crepant_resolvable_from_poset(poset: list[Stratum], ambient: int):
    violators = [
        s for s in poset if not (s.near_pencil or admissible(s.dim, s.mult, ambient))
    ]
    return not violators, violators


def crepant_resolvable(arr: Arrangement, poset: list[Stratum] | None = None):
    """True iff every stratum is near-pencil or admissible, plus violators."""
    if poset is None:
        poset = intersection_poset(arr)
    return crepant_resolvable_from_poset(poset, arr.dim)


@dataclass(frozen=True)
class BlowUpStep:
    stratum: Stratum
    half_mult: int
    adds_exceptional: bool  # branch divisor picks up E exactly when mult is odd


def resolution_schedule(arr: Arrangement, poset: list[Stratum] | None = None) -> list[BlowUpStep]:
    """Blow-up centers in resolution order: all non-near-pencil strata by
    ascending dimension (ties by canonical basis), each annotated with
    the branch-divisor update D* = s*D - 2 floor(m/2) E.

    Strict transforms keep their (dim, mult) and newly created strata
    are near-pencil, so the schedule is computable from the original
    poset; only resolvable arrangements are accepted.
    """
    if poset is None:
        poset = intersection_poset(arr)
    ok, violators = crepant_resolvable_from_poset(poset, arr.dim)
    if not ok:
        raise ValueError(f"arrangement is not crepant-resolvable: {len(violators)} violating strata")
    centers = sorted(
        (s for s in poset if not s.near_pencil), key=lambda s: (s.dim, s.basis)
    )
    return [BlowUpStep(s, s.mult // 2, s.mult % 2 == 1) for s in centers]


# ---------------------------------------------------------------------------
# Good reduction


@dataclass(frozen=True)
class GoodReductionReport:
    all_unimodular: bool  # every minor of the coefficient matrix in {0, +-1}
    exceptional_odd_primes: tuple[int, ...]
    max_abs_minor: int

    @property
    def verdict(self) -> str:
        return "all odd primes good" if self.all_unimodular else (
            f"exceptional odd primes: {list(self.exceptional_odd_primes)}"
        )


def good_reduction_report(arr: Arrangement) -> GoodReductionReport:
    """Scan every minor (all sizes) of the N x (n+1) coefficient matrix.

    Minors in {0, +-1} force the mod-p stratification to agree with the
    rational one at every odd prime.  Otherwise the odd primes dividing
    some nonzero minor are the only candidates for a changed poset.
    """
    matrix = arr.coefficient_matrix()
    exceptional: set[int] = set()
    max_abs = 0
    for _, _, _, value in all_minors(matrix):
        v = abs(value)
        max_abs = max(max_abs, v)
        if v > 1:
            for q in _odd_prime_divisors(v):
                exceptional.add(q)
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
    missing: tuple[tuple[int, ...], ...]  # hyperplane index sets present over Q only
    extra: tuple[tuple[int, ...], ...]  # present over F_p only
    changed_dim: tuple[tuple[int, ...], ...]


def poset_mod_p(arr: Arrangement, p: int) -> dict[tuple[int, ...], int]:
    """Flats of the reduced arrangement over F_p, keyed by the containing-
    hyperplane index set, value = dimension.

    The same mask-keyed enumerator as `intersection_poset`, with every
    residual reduced mod p and scaled to lead coefficient 1.  Raises
    ValueError when a hyperplane reduces to zero mod p, and returns {}
    when two hyperplanes reduce to the same vector mod p.
    """
    require_odd_prime(p)
    vectors = [tuple(c % p for c in h.coeffs) for h in arr.hyperplanes]
    if any(not any(v) for v in vectors):
        raise ValueError(f"a hyperplane degenerates to zero mod {p}")
    if len(set(vectors)) != len(vectors):
        # two hyperplanes coincide mod p; the stratification cannot match
        return {}

    def pivot(v) -> tuple[int, ...]:
        inv = pow(_lead(v), -1, p)
        return tuple(x * inv % p for x in v)

    def reduce(v, w, col: int) -> tuple[int, ...]:
        f = v[col]
        return pivot([(x - f * y) % p for x, y in zip(v, w)])

    n = arr.dim
    return {
        _indices(mask): n - rank
        for mask, (rank, _) in _flats(vectors, n, pivot, reduce).items()
        if mask & (mask - 1)
    }


def poset_matches_mod_p(arr: Arrangement, p: int, poset: list[Stratum] | None = None) -> ModPComparison:
    """Diff the F_p intersection poset against the rational one.

    Flats on both sides are identified with their containing-hyperplane
    index sets (which span the defining forms), so poset equality is set
    equality plus matching dimensions.
    """
    if poset is None:
        poset = intersection_poset(arr)
    rational = {s.hyperplanes: s.dim for s in poset}
    modp = poset_mod_p(arr, p)
    missing = tuple(sorted(k for k in rational if k not in modp))
    extra = tuple(sorted(k for k in modp if k not in rational))
    changed = tuple(sorted(k for k in rational if k in modp and rational[k] != modp[k]))
    return ModPComparison(p, not (missing or extra or changed), missing, extra, changed)
