"""Slow reference implementations of the flat enumeration, kept as test
oracles for the mask-keyed engine in `cyarith.arrangement`.

They share no code with the engine: every rank and canonical key comes
from a full `Fraction` echelon form over Q (or `echelon_mod` over F_p)
recomputed from scratch for each candidate.

- `subsets_poset` ranks every subset of >= 2 hyperplanes.
- `closure_poset` seeds with the pairwise intersections and intersects
  the frontier with one hyperplane at a time, breadth first.
- `subsets_poset_mod_p` and `closure_poset_mod_p` are the same two
  loops over F_p, with the input checks of `poset_mod_p`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

from cyarith.arith import echelon, primitive_rows, require_odd_prime
from cyarith.arrangement import Stratum


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
    rank); `found` maps each key of rank <= n with >= 2 containing
    hyperplanes to (dim, containing-hyperplane indices).
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
        for r in range(2, len(self.vectors) + 1):
            for idx in combinations(range(len(self.vectors)), r):
                self.visit(tuple(self.vectors[i] for i in idx))
        return self.found

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
    strata = [Stratum(basis, dim, members) for basis, (dim, members) in found.items()]
    # near-pencil: contained in a flat one dimension up with one fewer hyperplane
    by_mask = {s.mask: s for s in strata}
    flagged = []
    for s in strata:
        near = False
        for drop in s.hyperplanes:
            parent = by_mask.get(s.mask & ~(1 << drop))
            if parent is not None and parent.dim == s.dim + 1:
                near = True
                break
        flagged.append(replace(s, near_pencil=near))
    flagged.sort(key=lambda s: (-s.dim, s.mult, s.basis))
    return flagged


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
    if len(set(vectors)) != len(vectors):
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
