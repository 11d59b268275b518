"""Slow reference implementations kept as test oracles for the fast
kernels of cyarith.

Flat enumeration (`cyarith.arrangement`).  These share no code with the
mask-keyed engine: every rank and canonical key comes from a full
`Fraction` echelon form over Q (or `echelon_mod` over F_p), of a
candidate's rows or of a smaller subset's key plus one row.
`primitive_rows(echelon(rows))` of a stratum's hyperplane forms is also
the reference for `Stratum.basis`, the reduced echelon form that the
engine keeps for each flat as it adds one pivot row per rank.

- `subsets_poset` ranks every subset of >= 2 hyperplanes.
- `closure_poset` seeds with the pairwise intersections and intersects
  the frontier with one hyperplane at a time, breadth first.
- `subsets_poset_mod_p` and `closure_poset_mod_p` are the same two
  loops over F_p, the references for `poset_matches_mod_p`, which
  enumerates no F_p flat and answers from the gcds of the maximal minors
  instead: the F_p lattice the oracles find must equal the rational one
  exactly when it says so.  Like it, they raise ValueError when a
  hyperplane reduces to zero mod p; they find no flat when two
  hyperplanes reduce to the same line, which it never calls equal.
- Near-pencil flags, cover edges and `incidence_rows` come from the
  hyperplane sets and dimensions those loops find, by their
  definitions: no cover edge of the engine is reused.

Series and point counts (`cyarith.arith`, `cyarith.qseries`,
`cyarith.pointcount`).

- `is_prime_trial_division` tries every d up to sqrt(n), the reference
  for the sieve table that `arith.is_prime` reads below 2^16.
- `legendre` is Euler's criterion a^((p-1)/2) mod p, the reference for
  the squares sieve of `arith.legendre_table` and for `CMField.chi`.
- `mul_trunc` is the schoolbook truncated product, the reference for
  `arith._kronecker_mul`.  `pow_trunc` is binary powering on top of it,
  and `eta_unit_power` is J.C.P. Miller's power recurrence, O(N^1.5)
  for any exponent: two references for the halving chain of Kronecker
  products in `qseries.unit_powers`.
- `ahlgren_count_loop` sums each fibre sum S(v) directly, in O(p^2),
  the reference for the one-product correlation in
  `pointcount.ahlgren_count_fast`; `legendre_family_sum` is one S(v).
- `ahlgren_count_enumeration` visits all p^5 points (x, y, z, t, v) and
  reads the number of w off a squares histogram, the reference for the
  value-histogram count `pointcount.ahlgren_count_bruteforce`.  It builds
  its own value table.

Minors (`cyarith.arith`, `cyarith.arrangement`).

- `det` is fraction-free (Bareiss) elimination and `all_minors` applies
  it to every square submatrix, the reference for the level-by-level
  Laplace pass `arith.minors_by_size`.
- `odd_prime_divisors_trial_division` tries every odd q up to sqrt(v),
  with no bound on the work, the reference for the trial division and
  Pollard rho of `arrangement._odd_prime_divisors`.
- `good_reduction_scan` builds a `GoodReductionReport` from `all_minors`,
  factoring every distinct |minor| by that trial division, the reference
  for `good_reduction_report` on the cached minor scan.

Tensor factors (`cyarith.tensor`).

- `power_sums_from_poly` runs Newton's identities from a polynomial back
  to its power sums, the round trip of `char_poly_from_power_sums`.
- `char_poly_signed_newton` is the signed Newton loop on e_k, the
  reference for the signless steps of `char_poly_from_power_sums`.
- `poly_mul` is the schoolbook product of two `IntPoly` and `poly_pow`
  binary powering on top of it, the reference for `tensor.euler_product`.
- `power_factorization_rhs_by_powers` builds the binomial product side
  from `poly_pow` powers and `poly_mul` products, the reference for the
  sector factors of `tensor.verify_power_factorization`.
- `tensor_euler_factor_full_degree` runs the signed Newton loop through
  the full degree 2^n, with no functional equation and no grouping of
  repeated factors, the reference for `tensor.tensor_euler_factor`.

CM prime elements and invariant dimensions (`cyarith.cmforms`,
`cyarith.tensor`).

- `norm_p_elements` lists every element of norm p by trying each x with
  |x| <= sqrt(4p/d), O(sqrt(p)) square roots, and
  `normalized_element_by_enumeration` keeps the two that pass
  `is_normalized`, the reference for the Cornacchia search of
  `cmforms.normalize_prime_element`.
- `invariant_dimension_by_signs` tests each of the 2^n sign vectors
  against the generators of the sum-zero group, the reference for
  `tensor.invariant_tensor_dimension`, which reads the sectors.

Hecke expansion (`cyarith.qseries`).

- `hecke_expand_trial_division` factors every index by trial division
  and multiplies the prime-power coefficients, each from its own run of
  the recurrence, the reference for the sieve of `qseries.hecke_expand`.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt, lcm

from cyarith.arith import IdentityViolation, IntPoly, is_prime, legendre_table, require_odd_prime
from cyarith.arrangement import GoodReductionReport, Stratum
from cyarith.cmforms import QuadOrderElem, cm_euler_factor, is_normalized
from cyarith.qseries import QSeries, eta_unit_part


def echelon(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over Q, zero rows dropped.

    Canonical: pivots are 1, pivot columns strictly increase, pivot
    columns are cleared above and below.  Two matrices span the same row
    space iff their echelon forms are equal, which makes this the
    deduplication key for linear flats.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return ()
    ncols = len(m[0])
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    piv = 0
    for col in range(ncols):
        for r in range(piv, len(m)):
            if m[r][col] != 0:
                break
        else:
            continue
        m[piv], m[r] = m[r], m[piv]
        inv = 1 / m[piv][col]
        m[piv] = [x * inv for x in m[piv]]
        for r in range(len(m)):
            if r != piv and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[piv])]
        piv += 1
        if piv == len(m):
            break
    return tuple(tuple(row) for row in m[:piv])


def rank(rows) -> int:
    return len(echelon(rows))


def primitive_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Each row scaled to a primitive integer vector with positive lead.

    Applied to echelon output this gives an integral canonical form,
    convenient for hashing and for reduction mod p.
    """
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * mult) for f in fracs]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g:
            ints = [x // g for x in ints]
        lead = next((x for x in ints if x != 0), 0)
        if lead < 0:
            ints = [-x for x in ints]
        out.append(tuple(ints))
    return tuple(out)


def echelon_mod(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p, zero rows dropped."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return ()
    ncols = len(m[0])
    piv = 0
    for col in range(ncols):
        for r in range(piv, len(m)):
            if m[r][col]:
                break
        else:
            continue
        m[piv], m[r] = m[r], m[piv]
        inv = pow(m[piv][col], p - 2, p)
        m[piv] = [x * inv % p for x in m[piv]]
        for r in range(len(m)):
            if r != piv and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[piv])]
        piv += 1
        if piv == len(m):
            break
    return tuple(tuple(row) for row in m[:piv])


class _Search:
    """Flats of `vectors` in k^(n+1) found through a canonical-basis key.

    `key(rows)` is a canonical form of the row space (its length is the
    rank).  Both searches return a dict mapping each key of rank <= n with
    >= 2 containing hyperplanes to (dim, containing-hyperplane indices).
    """

    def __init__(self, vectors, n: int, key):
        self.vectors = vectors
        self.n = n
        self.key = key
        self.found: dict[tuple, tuple[int, tuple[int, ...]]] = {}

    def visit(self, rows):
        basis = self.key(rows)
        rank = len(basis)
        if basis in self.found:
            return basis
        if rank > self.n:
            return None
        members = tuple(
            i for i, v in enumerate(self.vectors) if len(self.key(basis + (v,))) == rank
        )
        if len(members) < 2:
            return None
        self.found[basis] = (self.n - rank, members)
        return basis

    def subsets(self):
        """Every subset of >= 2 vectors, keyed as the key of the subset
        without its last member plus that member's row: one echelon of at
        most n + 2 rows per distinct (prefix key, row) pair.  A flat's
        containing hyperplanes are the union of the subsets spanning it,
        since adding a member to a subset leaves its key unchanged."""
        keys = {(i,): self.key((v,)) for i, v in enumerate(self.vectors)}
        extended: dict[tuple, tuple] = {}
        members: dict[tuple, set[int]] = {}
        for r in range(2, len(self.vectors) + 1):
            for idx in combinations(range(len(self.vectors)), r):
                step = (keys[idx[:-1]], idx[-1])
                if step not in extended:
                    extended[step] = self.key(step[0] + (self.vectors[idx[-1]],))
                basis = keys[idx] = extended[step]
                if len(basis) <= self.n:
                    members.setdefault(basis, set()).update(idx)
        return {basis: (self.n - len(basis), tuple(sorted(m))) for basis, m in members.items()}

    def closure(self):
        frontier = []
        for i, j in combinations(range(len(self.vectors)), 2):
            key = self.visit((self.vectors[i], self.vectors[j]))
            if key is not None and key not in frontier:
                frontier.append(key)
        seen = set(frontier)
        while frontier:
            nxt = []
            for basis in frontier:
                members = set(self.found[basis][1])
                for k, v in enumerate(self.vectors):
                    if k in members:
                        continue
                    key = self.visit(basis + (v,))
                    if key is not None and key not in seen:
                        seen.add(key)
                        nxt.append(key)
            frontier = nxt
        return self.found


def _canonical(rows):
    return primitive_rows(echelon(rows))


def _strata(found) -> list[Stratum]:
    strata = [Stratum(basis, dim, sum(1 << i for i in members)) for basis, (dim, members) in found.items()]
    by_mask = {s.mask: s for s in strata}
    flagged = []
    for s in strata:
        # near-pencil: contained in a flat one dimension up with one fewer hyperplane
        near = False
        for drop in s.hyperplanes:
            parent = by_mask.get(s.mask & ~(1 << drop))
            if parent is not None and parent.dim == s.dim + 1:
                near = True
                break
        # covers: the strata one dimension up whose hyperplanes all contain s
        members = set(s.hyperplanes)
        covers = sorted(t.mask for t in strata if t.dim == s.dim + 1 and members.issuperset(t.hyperplanes))
        flagged.append(replace(s, near_pencil=near, covers=tuple(covers)))
    flagged.sort(key=lambda s: (-s.dim, s.mult, s.basis))
    return flagged


def incidence_rows(poset) -> list[tuple]:
    """`classify`'s rows as (dim, mult, near_pencil, count, incidence,
    incidence_uniform), by definition: a stratum's incidence entry for a
    positive-dimensional type counts the strata of that type whose
    hyperplane sets are proper subsets of its own."""
    def key(s):
        return (s.dim, s.mult, s.near_pencil)

    keys = sorted({key(s) for s in poset}, key=lambda t: (-t[0], t[1], t[2]))
    columns = [t for t in keys if t[0] >= 1]
    rows = []
    for k in keys:
        members = [s for s in poset if key(s) == k]
        vectors = {
            tuple(sum(key(t) == col and set(t.hyperplanes) < set(s.hyperplanes) for t in poset) for col in columns)
            for s in members
        }
        uniform = len(vectors) == 1
        rows.append((*k, len(members), vectors.pop() if uniform else (-1,) * len(columns), uniform))
    return rows


def subsets_poset(arr) -> list[Stratum]:
    vectors = [h.coeffs for h in arr.hyperplanes]
    return _strata(_Search(vectors, arr.dim, _canonical).subsets())


def closure_poset(arr) -> list[Stratum]:
    vectors = [h.coeffs for h in arr.hyperplanes]
    return _strata(_Search(vectors, arr.dim, _canonical).closure())


def _search_mod_p(arr, p: int):
    require_odd_prime(p)
    vectors = [tuple(c % p for c in h.coeffs) for h in arr.hyperplanes]
    if any(not any(v) for v in vectors):
        raise ValueError(f"a hyperplane degenerates to zero mod {p}")
    # hyperplanes coincide when their lines do: compare echelon forms
    if len({echelon_mod([v], p) for v in vectors}) != len(vectors):
        return None
    return _Search(vectors, arr.dim, lambda rows: echelon_mod(rows, p))


def subsets_poset_mod_p(arr, p: int) -> dict[tuple[int, ...], int]:
    search = _search_mod_p(arr, p)
    if search is None:
        return {}
    return {members: dim for dim, members in search.subsets().values()}


def closure_poset_mod_p(arr, p: int) -> dict[tuple[int, ...], int]:
    search = _search_mod_p(arr, p)
    if search is None:
        return {}
    return {members: dim for dim, members in search.closure().values()}


def mul_trunc(a: list[int], b: list[int], top: int) -> list[int]:
    out = [0] * (top + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > top:
            continue
        jmax = top - i
        for j, bj in enumerate(b[: jmax + 1]):
            if bj:
                out[i + j] += ai * bj
    return out


def pow_trunc(a: list[int], k: int, top: int) -> list[int]:
    # binary exponentiation on truncated series: O(log k) truncated products
    result = [0] * (top + 1)
    result[0] = 1
    base = list(a[: top + 1])
    while k:
        if k & 1:
            result = mul_trunc(result, base, top)
        k >>= 1
        if k:
            base = mul_trunc(base, base, top)
    return result


def eta_unit_power(k: int, top: int) -> list[int]:
    """prod_{n>=1} (1 - q^n)^k truncated at q^top, for k >= 1.

    Miller's power recurrence: f = E^k with E the pentagonal series
    satisfies E f' = k E' f, which gives
    n f_n = sum_{j>=1} e_j ((k+1) j - n) f_{n-j}.  Only the O(sqrt(top))
    nonzero e_j enter, and the division by n is exact.
    """
    terms = [(j, c, (k + 1) * j) for j, c in enumerate(eta_unit_part(top)) if j and c]
    f = [0] * (top + 1)
    f[0] = 1
    for n in range(1, top + 1):
        s = 0
        for j, c, kj in terms:
            if j > n:
                break
            s += c * (kj - n) * f[n - j]
        f[n] = s // n
    return f


def is_prime_trial_division(n: int) -> bool:
    """n >= 2 with no divisor d in [2, sqrt(n)]."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, with the chi(0) = 0 convention,
    by Euler's criterion; p must be an odd prime."""
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def legendre_family_sum(p: int, v: int) -> int:
    """S(v) = sum_s chi(s(s-1)(s-v)); equals -a_p of y^2 = x(x-1)(x-v) for v != 0, 1."""
    chi = legendre_table(p)
    return sum(chi[s * (s - 1) % p * (s - v) % p] for s in range(p))


def ahlgren_count_loop(p: int) -> int:
    """N(p) = sum_v (p^4 + S(v)^4) with each S(v) summed directly."""
    return sum(p**4 + legendre_family_sum(p, v) ** 4 for v in range(p))


def ahlgren_count_enumeration(p: int) -> int:
    """N(p) for the affine Ahlgren fivefold by full enumeration of F_p^5."""
    require_odd_prime(p)
    nsol = [0] * p
    for w in range(p):
        nsol[w * w % p] += 1
    val = [[s * (s - 1) % p * (s - v) % p for s in range(p)] for v in range(p)]
    total = 0
    for v in range(p):
        row = val[v]
        for x in range(p):
            fx = row[x]
            for y in range(p):
                fxy = fx * row[y] % p
                for z in range(p):
                    fxyz = fxy * row[z] % p
                    for t in range(p):
                        total += nsol[fxyz * row[t] % p]
    return total


def det(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def all_minors(matrix):
    """Yield (size, row_idx, col_idx, value) for every square minor."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for size in range(1, min(nrows, ncols) + 1):
        for ridx in combinations(range(nrows), size):
            for cidx in combinations(range(ncols), size):
                sub = [[matrix[r][c] for c in cidx] for r in ridx]
                yield size, ridx, cidx, det(sub)


def odd_prime_divisors_trial_division(v: int) -> set[int]:
    """The odd primes dividing v > 0 by trial division up to sqrt(v), with
    no bound on the work."""
    while v % 2 == 0:
        v //= 2
    found = set()
    q = 3
    while q * q <= v:
        if v % q == 0:
            found.add(q)
            while v % q == 0:
                v //= q
        q += 2
    if v > 1:
        found.add(v)
    return found


def good_reduction_scan(arr) -> GoodReductionReport:
    values = {abs(value) for _, _, _, value in all_minors(arr.coefficient_matrix())}
    exceptional = {q for v in values if v > 1 for q in odd_prime_divisors_trial_division(v)}
    max_abs = max(values, default=0)
    return GoodReductionReport(max_abs <= 1, tuple(sorted(exceptional)), max_abs)


# ---------------------------------------------------------------------------
# Tensor factors


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """The schoolbook product of two integer polynomials."""
    if not a.coeffs or not b.coeffs:
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return IntPoly(out)


def poly_pow(a: IntPoly, n: int) -> IntPoly:
    """a^n by binary powering with `poly_mul`, for n >= 0."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = IntPoly((1,))
    while n:
        if n & 1:
            result = poly_mul(result, a)
        a = poly_mul(a, a)
        n >>= 1
    return result


def power_sums_from_poly(poly: IntPoly, upto: int) -> list[int]:
    """Power sums tr(Frob^m), m = 1..upto, of det(1 - Frob T) = poly, by
    Newton's identities run the other way: the inverse of
    `tensor.char_poly_from_power_sums`, for round-trip checks."""
    degree = poly.degree
    e = [(-1) ** k * poly.coeff(k) for k in range(degree + 1)]
    sums: list[int] = []
    for k in range(1, upto + 1):
        acc = 0
        for i in range(1, min(k, degree) + 1):
            acc += (-1) ** (i - 1) * e[i] * (sums[k - i - 1] if k - i >= 1 else k)
        sums.append(acc)
    return sums


def char_poly_signed_newton(sums: list[int], degree: int) -> IntPoly:
    """det(1 - Frob T) from power sums by k e_k = sum_{i=1..k} (-1)^(i-1)
    e_{k-i} p_i, signs applied term by term; a non-integral e_k raises
    IdentityViolation."""
    if len(sums) < degree:
        raise ValueError("need power sums up to the degree")
    e = [1] + [0] * degree
    for k in range(1, degree + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * sums[i - 1]
        if acc % k:
            raise IdentityViolation(f"non-integer Newton step at k = {k}: inconsistent traces")
        e[k] = acc // k
    return IntPoly(tuple((-1) ** k * e[k] for k in range(degree + 1)))


def power_factorization_rhs_by_powers(curve_ap: int | None, p: int, field, n: int) -> IntPoly:
    """prod_j L_p(weight n-2j+1, shift j)^C(n,j) times the even-n Dirichlet
    factors, each multiplicity a `poly_pow` power and the pieces multiplied
    by the schoolbook `poly_mul`."""
    ap = curve_ap if field.is_split(p) else None
    out = IntPoly((1,))
    for j in range((n - 1) // 2 + 1):
        out = poly_mul(out, poly_pow(cm_euler_factor(n - 2 * j + 1, field, p, ap).scale_arg(p**j), comb(n, j)))
    if n % 2 == 0:
        half = comb(n, n // 2) // 2
        pn2 = p ** (n // 2)
        pair = poly_mul(IntPoly((1, -pn2)), IntPoly((1, -field.chi(p) * pn2)))
        out = poly_mul(out, poly_pow(pair, half))
    return out


def tensor_euler_factor_full_degree(factors) -> IntPoly:
    """The degree-2^n tensor factor from all 2^n power sums, one Lucas
    pass per factor (repeats included), by the signed Newton loop: each
    coefficient computed, none mirrored."""
    factors = list(factors)
    degree = 2 ** len(factors)
    sums = [1] * degree
    for factor in factors:
        if factor.degree != 2 or factor.coeff(0) != 1:
            raise ValueError(f"not a degree-2 Euler factor: {factor}")
        t, d = -factor.coeff(1), factor.coeff(2)
        prev, cur = 2, t
        for m in range(degree):
            sums[m] *= cur
            prev, cur = cur, t * cur - d * prev
    return char_poly_signed_newton(sums, degree)


# ---------------------------------------------------------------------------
# CM prime elements and invariant dimensions


def norm_p_elements(p: int, field) -> list[QuadOrderElem]:
    """All order elements of norm p (8 for Z[i], 12 for the Eisenstein order).

    x^2 + t xy + y^2 = p gives y = (-t x +- sqrt(4p - d x^2)) / 2, so
    |x| <= sqrt(4p/d).
    """
    d, t = field.d, field.t
    out = []
    bound = isqrt(4 * p // d)
    for x in range(-bound, bound + 1):
        disc = 4 * p - d * x * x
        r = isqrt(disc)
        if r * r == disc:
            for s in (r - t * x, -r - t * x):
                if s % 2 == 0:
                    out.append(QuadOrderElem(field, x, s // 2))
    return sorted(set(out), key=lambda e: (e.x, e.y))


def normalized_element_by_enumeration(p: int, field) -> QuadOrderElem:
    """The normalized element of norm p with y > 0, found among all
    elements of norm p: the two that pass `is_normalized` must be a
    conjugate pair, so of equal trace."""
    if not (is_prime(p) and field.is_split(p)):
        raise ValueError(f"p = {p} is not a split prime for d = {field.d}")
    hits = [e for e in norm_p_elements(p, field) if is_normalized(e)]
    if len(hits) != 2 or hits[0].conjugate() != hits[1]:
        raise IdentityViolation(f"normalization not unique at p = {p}: {[str(h) for h in hits]}")
    return next(e for e in hits if e.y > 0)


def invariant_dimension_by_signs(group: str, n: int) -> int:
    """The number of sign vectors e in {+1, -1}^n whose tensor every
    generator a = e_1 + (r-1) e_j, j = 2..n, of the sum-zero subgroup of
    (Z_r)^n fixes: Z3 and Z4 scale it by zeta_r^(a . e), the diagonal
    Z2 by (-1)^(a_1 + a_j), whatever e is."""
    r = {"Z2diag": 2, "Z3": 3, "Z4": 4}[group]
    count = 0
    for bits in range(2**n):
        signs = [1 if bits >> i & 1 else -1 for i in range(n)]
        exps = [1] * n if group == "Z2diag" else signs
        if all((exps[0] + (r - 1) * exps[j]) % r == 0 for j in range(1, n)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Hecke expansion


def hecke_expand_trial_division(spec, precision: int) -> QSeries:
    """a_1 .. a_N with each m factored by trial division and a_m the
    product of its prime-power coefficients a_(p^r), each from b_0 = 1,
    b_1 = a_p, b_(r+1) = a_p b_r - chi(p) p^(k-1) b_(r-1)."""
    a = [0] * (precision + 1)
    for m in range(1, precision + 1):
        value, rest, q = 1, m, 2
        while rest > 1:
            if q * q > rest:
                q = rest
            r = 0
            while rest % q == 0:
                rest //= q
                r += 1
            if r:
                ap, cpk = spec.ap(q), spec.chi(q) * q ** (spec.weight - 1)
                prev, cur = 1, ap
                for _ in range(r - 1):
                    prev, cur = cur, ap * cur - cpk * prev
                value *= cur
            q += 1
        a[m] = value
    return QSeries(tuple(a))
