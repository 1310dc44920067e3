"""Finitely generated modules over Z, Q, or F_p, and graded versions.

FGModule is the universal currency of results: a free rank plus an
invariant-factor chain.  Equality is isomorphism, never presentation.
"""
from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, Iterable, Optional, Tuple

from .matrices import IntMatrix, smith
from .records import Record


# Miller-Rabin with the first 13 prime bases is exact below the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < PRIME_TEST_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Coefficients(Record):
    """Ground ring: Z, Q, or a prime field F_p."""
    __slots__ = ()
    _fields = ("kind", "p")      # kind "Z" | "Q" | "Fp"

    def __new__(cls, kind: str, p: int = 0):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        if kind == "Fp" and p >= PRIME_TEST_BOUND:
            raise ValueError(f"field characteristic {p} is too large: primality "
                             f"is decided exactly only below {PRIME_TEST_BOUND}")
        if kind == "Fp" and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return tuple.__new__(cls, (kind, p))

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def __str__(self):
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")

    @classmethod
    def parse(cls, text: str) -> "Coefficients":
        t = text.strip()
        if t in ("Z", "ℤ"):
            return cls("Z")
        if t in ("Q", "ℚ"):
            return cls("Q")
        # refused by length: int() would meet Python's digit limit first
        digits = t[1:].strip().lstrip("+-").lstrip("0")
        if t[:1] == "F" and digits.isdecimal() and len(digits) > len(str(PRIME_TEST_BOUND)):
            raise ValueError(f"field characteristic of {len(digits)} digits is too large: "
                             f"primality is decided exactly only below {PRIME_TEST_BOUND}")
        try:
            p = int(t[1:]) if t.startswith("F") else None
        except ValueError:
            p = None
        if p is None:
            raise ValueError(f"cannot parse coefficient ring {text!r}")
        return cls("Fp", p)


ZZ = Coefficients("Z")
QQ = Coefficients("Q")


def _chain_from_factors(factors: Iterable[int]) -> Tuple[int, ...]:
    """Canonical invariant-factor chain from arbitrary cyclic orders."""
    primes: Dict[int, list] = {}
    for d in factors:
        d = abs(int(d))
        if d in (0, 1):
            continue
        n = d
        q = 2
        while q * q <= n:
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                primes.setdefault(q, []).append(q ** e)
            q += 1
        if n > 1:
            primes.setdefault(n, []).append(n)
    for q in primes:
        primes[q].sort(reverse=True)
    k = max((len(v) for v in primes.values()), default=0)
    chain = []
    for slot in range(k):
        d = 1
        for q, powers in primes.items():
            if slot < len(powers):
                d *= powers[slot]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


class FGModule(Record):
    """Finitely generated module: free rank + invariant factors d1|d2|...

    Torsion factors are each >= 2 and form a divisibility chain; over a
    field the torsion is empty.  Instances compare by isomorphism type.
    """
    __slots__ = ()
    _fields = ("rank", "torsion")

    def __new__(cls, rank: int, torsion: Tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        if torsion:
            for a, b in zip(torsion, torsion[1:]):
                if b % a != 0:
                    raise ValueError(f"broken divisibility chain {torsion}")
            if any(d < 2 for d in torsion):
                raise ValueError(f"torsion factors must be >= 2: {torsion}")
        return tuple.__new__(cls, (rank, torsion))

    @classmethod
    def zero(cls) -> "FGModule":
        return _ZERO

    @classmethod
    def free(cls, r: int) -> "FGModule":
        return cls(r, ())

    @classmethod
    def from_factors(cls, rank: int, factors: Iterable[int]) -> "FGModule":
        if not factors:
            return cls(rank)
        return cls(rank, _chain_from_factors(factors))

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def order(self) -> Optional[int]:
        """Number of elements; None when infinite."""
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def free_part(self) -> "FGModule":
        return FGModule(self.rank) if self.torsion else self

    def torsion_part(self) -> "FGModule":
        return FGModule(0, self.torsion) if self.torsion else _ZERO

    def direct_sum(self, *others: "FGModule") -> "FGModule":
        rank = self.rank
        factors = list(self.torsion)
        for o in others:
            rank += o.rank
            factors.extend(o.torsion)
        return FGModule.from_factors(rank, factors)

    def p_torsion_count(self, p: int) -> int:
        return sum(1 for d in self.torsion if d % p == 0)

    def presentation(self) -> Tuple[int, IntMatrix]:
        """Generator count and relation matrix of the canonical form.

        Free generators come first, torsion generators after, so a matrix
        written against Z^r + Z/d1 + ... reads the way the examples are
        stated (free coordinates, then torsion coordinates).
        """
        g = self.rank + len(self.torsion)
        rels = IntMatrix(g, len(self.torsion),
                         {(self.rank + i, i): d for i, d in enumerate(self.torsion)})
        return g, rels

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)


# frozen and compared by value, so one zero module serves every caller
_ZERO = FGModule(0)


def module_from_relations(n_gens: int, rels: IntMatrix) -> FGModule:
    """Z^n modulo the column span of ``rels``."""
    if rels.rows != n_gens:
        raise ValueError("relation matrix rows must equal generator count")
    sd = smith(rels, need_U=False, need_V=False)
    factors = [d for d in sd.diagonal if d > 1]
    return FGModule.from_factors(n_gens - sd.rank, factors)


# -- Hom/Ext duals and the Verdier-style dual -------------------------

def hom_dual(m: FGModule) -> FGModule:
    """Hom(M, R) over a PID: the free part survives, torsion dies."""
    return m.free_part()


def ext_dual(m: FGModule) -> FGModule:
    """Ext(M, R) over a PID: isomorphic to the torsion part."""
    return m.torsion_part()


class GradedModule:
    """Finite family of FGModule indexed by integer degrees.

    Degrees outside the stored support are the zero module.
    """

    def __init__(self, data: Optional[Dict[int, FGModule]] = None):
        self._data = {k: v for k, v in (data or {}).items() if not v.is_zero}

    def __getitem__(self, k: int) -> FGModule:
        return self._data.get(k, _ZERO)

    def support(self):
        return sorted(self._data)

    def items(self):
        return sorted(self._data.items())

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._data == other._data

    def __hash__(self):
        return hash(tuple(sorted(self._data.items())))

    def is_zero(self) -> bool:
        return not self._data

    def direct_sum(self, other: "GradedModule") -> "GradedModule":
        out = dict(self._data)
        for k, v in other._data.items():
            out[k] = out[k].direct_sum(v) if k in out else v
        return GradedModule(out)

    def free_part(self) -> "GradedModule":
        return GradedModule({k: v.free_part() for k, v in self._data.items()})

    def torsion_part(self) -> "GradedModule":
        return GradedModule({k: v.torsion_part() for k, v in self._data.items()})

    def __str__(self):
        if not self._data:
            return "0"
        return ", ".join(f"[{k}] {v}" for k, v in self.items())

    __repr__ = __str__


def verdier_dual_homology(H: GradedModule) -> GradedModule:
    """Homology of the dual complex, from the universal coefficient split.

    Degree k of the output is Hom(H^k, R) + Ext(H^{k+1}, R).  The input is
    read cohomologically and the output homologically; reindexing k -> n - k
    through the ambient duality dimension is left to callers, so that
    applying the chain-side dual after this one is the identity.
    """
    degrees = set(H.support()) | {k - 1 for k in H.support()}
    out = {}
    for k in degrees:
        out[k] = hom_dual(H[k]).direct_sum(ext_dual(H[k + 1]))
    return GradedModule(out)


def verdier_dual_cohomology(H: GradedModule) -> GradedModule:
    """Chain-side twin: degree k maps to Hom(H_k, R) + Ext(H_{k-1}, R)."""
    degrees = set(H.support()) | {k + 1 for k in H.support()}
    out = {}
    for k in degrees:
        out[k] = hom_dual(H[k]).direct_sum(ext_dual(H[k - 1]))
    return GradedModule(out)


# -- tensor, Tor, Künneth ---------------------------------------------

def tensor_fg(a: FGModule, b: FGModule) -> FGModule:
    """A (x) B with Z_a (x) Z_b = Z_gcd(a,b)."""
    rank = a.rank * b.rank
    factors = []
    factors += list(b.torsion) * a.rank
    factors += list(a.torsion) * b.rank
    for d in a.torsion:
        for e in b.torsion:
            factors.append(gcd(d, e))
    return FGModule.from_factors(rank, factors)


def tor_fg(a: FGModule, b: FGModule) -> FGModule:
    """Tor(A, B) = Z_gcd on each pair of cyclic torsion summands."""
    factors = [gcd(d, e) for d in a.torsion for e in b.torsion]
    return FGModule.from_factors(0, factors)


def kunneth(A: GradedModule, B: GradedModule) -> GradedModule:
    """Degree n of the product: sum of A_i (x) B_j over i+j=n plus the
    Tor terms one degree up (i+j = n-1)."""
    out: Dict[int, FGModule] = {}

    def add(k: int, m: FGModule):
        if not m.is_zero:
            out[k] = out[k].direct_sum(m) if k in out else m

    for i, ai in A.items():
        for j, bj in B.items():
            add(i + j, tensor_fg(ai, bj))
            add(i + j + 1, tor_fg(ai, bj))
    return GradedModule(out)


# -- extension problems -------------------------------------------------

class ExtensionOutcome(Record):
    """A group E known only through 0 -> sub -> E -> quot -> 0.

    ``resolved`` is filled only when the sequence determines E: one end
    zero, or the quotient free (such sequences split).  Everything else
    stays as end data plus order/exponent bounds; guessing a splitting
    would fabricate information the source never provides.
    """
    __slots__ = ()
    _fields = ("sub", "quot", "resolved", "note")

    def __new__(cls, sub: FGModule, quot: FGModule,
                resolved: Optional[FGModule] = None, note: str = ""):
        return tuple.__new__(cls, (sub, quot, resolved, note))

    @classmethod
    def of(cls, sub: FGModule, quot: FGModule) -> "ExtensionOutcome":
        if sub.is_zero:
            return cls(sub, quot, quot)
        if quot.is_zero:
            return cls(sub, quot, sub)
        if quot.is_free:
            return cls(sub, quot, sub.direct_sum(quot),
                       note="free quotient, sequence splits")
        return cls(sub, quot, None, note="extension ambiguous")

    @property
    def rank(self) -> int:
        return self.sub.rank + self.quot.rank

    def order(self) -> Optional[int]:
        a, b = self.sub.order(), self.quot.order()
        if a is None or b is None:
            return None
        return a * b

    def is_zero(self) -> bool:
        return self.sub.is_zero and self.quot.is_zero

    def consistent_with(self, candidate: FGModule) -> bool:
        """Is ``candidate`` a possible middle term of the sequence?"""
        if self.resolved is not None:
            return candidate == self.resolved
        if candidate.rank != self.rank:
            return False
        if self.order() is not None:
            if candidate.order() != self.order():
                return False
            return _finite_extension_exists(self.sub, candidate, self.quot)
        return True   # only coarse checks available with free ends

    def __str__(self):
        if self.resolved is not None:
            return str(self.resolved)
        o = self.order()
        tail = f", order {o}" if o is not None else ""
        return f"<extension of {self.quot} by {self.sub}{tail}>"


def _iter_elements(invariants):
    return itertools.product(*[range(d) for d in invariants])


def _subgroup_invariants(invariants, gens):
    """Quotient of prod Z_d by the subgroup generated by ``gens``, and the
    order of that subgroup."""
    n = len(invariants)
    G = IntMatrix(n, len(gens), {(i, j): g[i] for j, g in enumerate(gens) for i in range(n) if g[i]})
    D = IntMatrix(n, n, {(i, i): invariants[i] for i in range(n)})
    total = 1
    for d in invariants:
        total *= d
    coker = module_from_relations(n, G.hstack(D))
    sub_order = total // (coker.order() or 1)
    return coker, sub_order


def _finite_extension_exists(sub: FGModule, mid: FGModule, quot: FGModule) -> bool:
    """Decide existence of 0 -> sub -> mid -> quot -> 0 for finite groups.

    Brute force over candidate subgroups of ``mid`` generated by up to
    len(sub.torsion) elements; adequate for the small orders these
    computations produce.
    """
    if (mid.order() or 0) > 10000 or len(sub.torsion) > 2:
        # too big to enumerate; accept on order grounds
        return True
    invs = list(mid.torsion)
    target = sub.order() or 1
    n_gens = max(1, len(sub.torsion))
    seen = set()
    for gens in itertools.combinations_with_replacement(_iter_elements(invs), n_gens):
        if gens in seen:
            continue
        seen.add(gens)
        coker, sub_order = _subgroup_invariants(invs, list(gens))
        if sub_order != target:
            continue
        # identify subgroup type: subgroup of prod Z_invs generated by gens
        sub_type = _generated_subgroup_type(invs, list(gens))
        if sub_type != sub:
            continue
        if coker == quot:
            return True
    return False


def _generated_subgroup_type(invariants, gens) -> FGModule:
    """Isomorphism type of the subgroup generated by ``gens``."""
    n = len(invariants)
    k = len(gens)
    G = IntMatrix(n, k, {(i, j): gens[j][i] for j in range(k) for i in range(n) if gens[j][i]})
    D = IntMatrix(n, n, {(i, i): invariants[i] for i in range(n)})
    # kernel of Z^k -> prod Z_d: pairs (x, y) with Gx = Dy
    from .matrices import kernel_basis
    K = kernel_basis(G.hstack(D))
    rel_cols = []
    for j in range(K.cols):
        col = K.column(j)
        rel_cols.append({i: v for i, v in col.items() if i < k})
    rels = IntMatrix.from_columns(rel_cols, k)
    return module_from_relations(k, rels)
