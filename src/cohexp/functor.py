"""From fuzzy functions to Boolean explanations.

``booleanize`` restricts a fuzzy function to the Boolean vertices of
its domain and projects the outputs, yielding a :class:`TruthTable`.
On functions that are coherent under the projection this operation is
structure preserving: it maps identities to identities and commutes
with composition (``verify_functor_law`` checks the latter on concrete
pairs and reports the first violating vertex otherwise).

``table_to_dnf`` turns a truth table into a disjunctive normal form,
either verbatim (one conjunction per true row) or minimised exactly
with Quine-McCluskey prime implicants plus Petrick's method for the
covering step.  Minimisation never changes semantics: the DNF agrees
with the source table on every vertex.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coherence import fiber_table
from .core import (
    MAX_TABLE_INPUTS,
    Compose,
    FuzzyExpr,
    Projection,
    TruthTable,
    all_vertices,
    fiber_codes,
    fiber_digits,
)
from .errors import CapacityError, ValidationError

__all__ = [
    "MAX_SIMPLIFY_INPUTS",
    "DnfFormula",
    "FunctorLawReport",
    "default_var_names",
    "booleanize",
    "identity_table",
    "bool_compose",
    "table_to_dnf",
    "verify_functor_law",
]

# Exact minimisation is capped here; larger tables must use the
# verbatim minterm mode.
MAX_SIMPLIFY_INPUTS = 12

Literal = tuple[int, bool]  # (variable index, negated?)
Term = tuple[Literal, ...]


def default_var_names(n: int) -> tuple[str, ...]:
    """x, y, z for the first three variables, x4, x5, ... beyond."""
    base = ("x", "y", "z")
    return tuple(base[i] if i < 3 else f"x{i + 1}" for i in range(n))


# ---------------------------------------------------------------------------
# DNF formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DnfFormula:
    """Disjunctive normal form, one disjunct list per output.

    A term is a conjunction of literals over distinct variables; the
    empty term is the constant TRUE and an empty term list the constant
    FALSE.  Terms and literals are kept in a canonical sorted order so
    that structurally equal formulas compare equal.
    """

    n_vars: int
    outputs: tuple[tuple[Term, ...], ...]
    var_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_vars < 0:
            raise ValidationError("n_vars must be >= 0")
        if not self.outputs:
            raise ValidationError("a formula needs at least one output")
        if self.var_names is not None:
            names = tuple(str(s) for s in self.var_names)
            if len(names) != self.n_vars:
                raise ValidationError(
                    f"expected {self.n_vars} variable names, got {len(names)}"
                )
            object.__setattr__(self, "var_names", names)
        normalised = []
        for terms in self.outputs:
            canon_terms = []
            for term in terms:
                lits = tuple(sorted((int(v), bool(neg)) for v, neg in term))
                seen = [v for v, _ in lits]
                if len(set(seen)) != len(seen):
                    raise ValidationError(f"duplicate variable in conjunction: {term}")
                if any(v < 0 or v >= self.n_vars for v in seen):
                    raise ValidationError(f"literal variable out of range: {term}")
                canon_terms.append(lits)
            normalised.append(tuple(sorted(set(canon_terms), key=lambda t: (len(t), t))))
        object.__setattr__(self, "outputs", tuple(normalised))

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def names(self) -> tuple[str, ...]:
        return self.var_names if self.var_names is not None else default_var_names(self.n_vars)

    def term_sets(self, output: int = 0) -> frozenset[frozenset[Literal]]:
        """Order-insensitive view of one output, for semantic-shape
        comparisons."""
        return frozenset(frozenset(term) for term in self.outputs[output])

    def evaluate(self, bits: Sequence[int]) -> tuple[int, ...]:
        out = self.evaluate_batch(np.asarray(bits, dtype=np.float64).reshape(1, -1))
        return tuple(int(v) for v in out[0])

    def evaluate_batch(self, vertices: np.ndarray) -> np.ndarray:
        """Evaluate on ``(N, n_vars)`` rows of 0/1 values; returns
        ``(N, n_outputs)`` uint8."""
        arr = np.asarray(vertices, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n_vars:
            raise ValidationError(
                f"expected Boolean rows of arity {self.n_vars}, got {arr.shape}"
            )
        if arr.size and not np.isin(arr, (0.0, 1.0)).all():
            raise ValidationError("formula evaluation expects 0/1 components")
        n = arr.shape[0]
        out = np.zeros((n, self.n_outputs), dtype=np.uint8)
        for o, terms in enumerate(self.outputs):
            acc = np.zeros(n, dtype=bool)
            for term in terms:
                m = np.ones(n, dtype=bool)
                for var, neg in term:
                    m &= arr[:, var] == (0.0 if neg else 1.0)
                acc |= m
            out[:, o] = acc
        return out

    def to_table(self) -> TruthTable:
        rows = self.evaluate_batch(all_vertices(self.n_vars))
        return TruthTable(self.n_vars, self.n_outputs, rows)

    def render(self, output: int = 0, ascii_ops: bool = False) -> str:
        """Human-readable DNF for one output."""
        and_op, or_op, not_op = (" & ", " | ", "!") if ascii_ops else (" ∧ ", " ∨ ", "¬")
        terms = self.outputs[output]
        if not terms:
            return "FALSE"
        if terms == ((),):
            return "TRUE"
        names = self.names
        pieces = []
        for term in terms:
            lits = [f"{not_op}{names[v]}" if neg else names[v] for v, neg in term]
            text = and_op.join(lits)
            if len(lits) > 1 and len(terms) > 1:
                text = f"({text})"
            pieces.append(text)
        return or_op.join(pieces)

    def render_all(self, ascii_ops: bool = False) -> list[str]:
        return [self.render(o, ascii_ops) for o in range(self.n_outputs)]

    def to_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "var_names": list(self.names),
            "outputs": [
                [[[v, bool(neg)] for v, neg in term] for term in terms]
                for terms in self.outputs
            ],
            "rendered": self.render_all(),
        }


# ---------------------------------------------------------------------------
# booleanization and table algebra
# ---------------------------------------------------------------------------


def booleanize(f: FuzzyExpr, projection: Projection) -> TruthTable:
    """Restrict ``f`` to Boolean vertices and project the outputs.

    Requires a projection with Boolean image and at most
    ``MAX_TABLE_INPUTS`` inputs.
    """
    if not projection.is_boolean:
        raise ValidationError("booleanize needs a projection with image {0, 1}")
    n = f.in_arity
    if n > MAX_TABLE_INPUTS:
        raise CapacityError(
            f"booleanize capped at {MAX_TABLE_INPUTS} inputs, got {n}"
        )
    rows = fiber_table(f, projection, np.arange(2**n)).astype(np.uint8)
    return TruthTable(n, f.out_arity, rows)


def identity_table(n: int) -> TruthTable:
    """The truth table of the identity on ``{0,1}^n``."""
    return TruthTable(n, n, all_vertices(n).astype(np.uint8))


def bool_compose(outer: TruthTable, inner: TruthTable) -> TruthTable:
    """Compose truth tables: ``bool_compose(g, f)`` tabulates ``g . f``."""
    if inner.n_outputs != outer.n_inputs:
        raise ValidationError(
            f"cannot compose tables: inner produces {inner.n_outputs} bits, "
            f"outer consumes {outer.n_inputs}"
        )
    idx = fiber_codes(Projection.threshold(0.5), inner.rows)
    return TruthTable(inner.n_inputs, outer.n_outputs, outer.rows[idx])


@dataclass(frozen=True)
class FunctorLawReport:
    """Outcome of checking booleanize(g . f) == booleanize(g) . booleanize(f).

    ``witness`` is the first Boolean vertex (lexicographic order) where
    the two sides disagree, or None when the law holds.
    """

    holds: bool
    witness: tuple[int, ...] | None
    composite_row: tuple[int, ...] | None
    factored_row: tuple[int, ...] | None
    lhs: TruthTable
    rhs: TruthTable

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "composite_row": list(self.composite_row) if self.composite_row else None,
            "factored_row": list(self.factored_row) if self.factored_row else None,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
        }


def verify_functor_law(f: FuzzyExpr, g: FuzzyExpr, projection: Projection) -> FunctorLawReport:
    """Compare the booleanization of ``g . f`` against the composition
    of the separate booleanizations (``f`` runs first)."""
    lhs = booleanize(Compose(g, f), projection)
    rhs = bool_compose(booleanize(g, projection), booleanize(f, projection))
    diff = np.flatnonzero((lhs.rows != rhs.rows).any(axis=1))
    if diff.size == 0:
        return FunctorLawReport(True, None, None, None, lhs, rhs)
    i = int(diff[0])
    witness = tuple(int(b) for b in fiber_digits([i], 2, lhs.n_inputs)[0])
    return FunctorLawReport(
        False,
        witness,
        tuple(int(v) for v in lhs.rows[i]),
        tuple(int(v) for v in rhs.rows[i]),
        lhs,
        rhs,
    )


# ---------------------------------------------------------------------------
# Quine-McCluskey with Petrick's method
# ---------------------------------------------------------------------------


def _prime_implicants(minterms: Sequence[int], n: int) -> list[tuple[int, int]]:
    """All prime implicant cubes of the on-set, as ``(value, mask)``
    pairs where mask bits are don't-cares and value has them zeroed."""
    current = {(m, 0) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        next_level: set[tuple[int, int]] = set()
        by_mask: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
        for value, mask in current:
            by_mask[mask][bin(value).count("1")].append(value)
        for mask, groups in by_mask.items():
            for ones, values in groups.items():
                partners = groups.get(ones + 1, [])
                for a in values:
                    for b in partners:
                        d = a ^ b
                        if d & (d - 1) == 0:  # single differing bit
                            next_level.add((a & ~d, mask | d))
                            merged.add((a, mask))
                            merged.add((b, mask))
        primes |= current - merged
        current = next_level
    return sorted(primes, key=lambda c: (c[1], c[0]))


def _cube_cost(cube: tuple[int, int], n: int) -> int:
    """Number of literals the cube contributes."""
    return n - bin(cube[1]).count("1")


def _petrick_min_cover(
    remaining: list[int],
    cover_sets: dict[int, list[tuple[int, int]]],
    n: int,
) -> list[tuple[int, int]]:
    """Exact minimum cover of the remaining minterms.

    Depth-first branch and bound over the cyclic core: branch on the
    minterm with the fewest candidate cubes, cut branches that cannot
    reach the best cover size found so far, and among minimum-size
    covers prefer the fewest literals, then canonical cube order.
    """
    covers = {m: tuple(cover_sets[m]) for m in remaining}
    coverage: dict[tuple[int, int], set[int]] = {}
    for m, primes in covers.items():
        for p in primes:
            coverage.setdefault(p, set()).add(m)
    frozen = {p: frozenset(ms) for p, ms in coverage.items()}

    best_key: tuple | None = None

    def search(uncovered: frozenset, chosen: tuple[tuple[int, int], ...]) -> None:
        nonlocal best_key
        if not uncovered:
            cubes = sorted(chosen, key=lambda c: (c[1], c[0]))
            key = (len(cubes), sum(_cube_cost(c, n) for c in cubes), cubes)
            if best_key is None or key < best_key:
                best_key = key
            return
        gains = {p: len(frozen[p] & uncovered) for m in uncovered for p in covers[m]}
        if best_key is not None:
            lower = len(chosen) + -(-len(uncovered) // max(gains.values()))
            if lower > best_key[0]:
                return
        target = min(uncovered, key=lambda m: (len(covers[m]), m))
        # try high-coverage cubes first so the incumbent tightens early
        options = sorted(covers[target], key=lambda p: (-gains[p], p[1], p[0]))
        for p in options:
            search(uncovered - frozen[p], chosen + (p,))

    search(frozenset(remaining), ())
    assert best_key is not None
    return best_key[2]


def _minimum_cover(minterms: list[int], n: int) -> list[tuple[int, int]]:
    """Quine-McCluskey: prime implicants, essential-prime extraction
    with dominance reductions, Petrick's method on the cyclic core."""
    primes = _prime_implicants(minterms, n)
    covers: dict[tuple[int, int], set[int]] = {
        p: {m for m in minterms if (m & ~p[1]) == p[0]} for p in primes
    }
    uncovered = set(minterms)
    chosen: list[tuple[int, int]] = []
    active = list(primes)

    changed = True
    while changed and uncovered:
        changed = False
        # essential primes: a minterm with a single remaining cover
        for m in sorted(uncovered):
            cands = [p for p in active if m in covers[p]]
            if len(cands) == 1:
                p = cands[0]
                chosen.append(p)
                uncovered -= covers[p]
                active.remove(p)
                changed = True
                break
        if changed:
            continue
        # prime dominance: drop primes whose remaining coverage is
        # contained in a no-more-expensive competitor
        for p in list(active):
            pm = covers[p] & uncovered
            if not pm:
                active.remove(p)
                changed = True
                continue
            for q in active:
                if q == p:
                    continue
                if pm <= (covers[q] & uncovered) and _cube_cost(q, n) <= _cube_cost(p, n):
                    if (covers[q] & uncovered) == pm and _cube_cost(q, n) == _cube_cost(p, n):
                        # symmetric: keep the canonically smaller cube
                        if (q[1], q[0]) > (p[1], p[0]):
                            continue
                    active.remove(p)
                    changed = True
                    break

    if uncovered:
        cover_sets = {m: [p for p in active if m in covers[p]] for m in sorted(uncovered)}
        chosen.extend(_petrick_min_cover(sorted(uncovered), cover_sets, n))
    return sorted(set(chosen), key=lambda c: (c[1], c[0]))


def _cube_to_term(cube: tuple[int, int], n: int) -> Term:
    value, mask = cube
    term = []
    for var in range(n):
        pos = n - 1 - var
        if (mask >> pos) & 1:
            continue
        term.append((var, not ((value >> pos) & 1)))
    return tuple(term)


def table_to_dnf(
    table: TruthTable,
    simplify: bool = True,
    var_names: Sequence[str] | None = None,
) -> DnfFormula:
    """Extract a DNF per output from a truth table.

    ``simplify=False`` emits one full conjunction per true row;
    ``simplify=True`` computes an exact minimum-term cover (capped at
    ``MAX_SIMPLIFY_INPUTS`` inputs).
    """
    n = table.n_inputs
    if simplify and n > MAX_SIMPLIFY_INPUTS:
        raise CapacityError(
            f"exact simplification capped at {MAX_SIMPLIFY_INPUTS} inputs "
            f"(got {n}); rerun with simplify disabled"
        )
    outputs = []
    for o in range(table.n_outputs):
        ons = [int(m) for m in np.flatnonzero(table.column(o))]
        if not ons:
            outputs.append(())
            continue
        if n == 0:
            outputs.append(((),))
            continue
        if simplify:
            cubes = _minimum_cover(ons, n)
        else:
            cubes = [(m, 0) for m in ons]
        outputs.append(tuple(_cube_to_term(c, n) for c in cubes))
    names = tuple(var_names) if var_names is not None else None
    return DnfFormula(n, tuple(outputs), var_names=names)
