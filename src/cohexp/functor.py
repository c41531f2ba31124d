"""From fuzzy functions to Boolean explanations.

``booleanize`` restricts a fuzzy function to the Boolean vertices of
its domain and projects the outputs, yielding a :class:`TruthTable`.
On functions that are coherent under the projection this operation is
structure preserving: it maps identities to identities and commutes
with composition (``verify_functor_law`` checks the latter on concrete
pairs and reports the first violating vertex otherwise).

``table_to_dnf`` turns a truth table into a disjunctive normal form,
either verbatim (one conjunction per true row) or minimised exactly:
prime cubes come from a ternary cube table (digit 2 is "either"), and
the cover from a branch and bound over primes held as int bitsets.
Minimisation never changes semantics: the DNF agrees with the source
table on every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .coherence import fiber_table
from .core import (
    MAX_TABLE_INPUTS,
    Compose,
    FuzzyExpr,
    Projection,
    TruthTable,
    _place_values,
    all_vertices,
    fiber_digits,
)
from .errors import CapacityError, ValidationError, _checked

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
        need = "n_vars must be an integer >= 0"
        object.__setattr__(self, "n_vars", _checked(self.n_vars, int, need, 0))
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
            terms = [tuple(term) for term in terms]
            # one check per output: every variable an integer, every sign a bool
            literals = [lit for term in terms for lit in term]
            need = "literal variables must be integers"
            variables = [v for v, _ in literals]
            # a bool among integers would pass as one in an integer array
            stray = [v for v in variables if isinstance(v, (bool, np.bool_))]
            if stray:
                raise ValidationError(f"{need}, got {stray[0]!r}")
            variables = iter(_checked(np.asarray(variables), int, need).tolist())
            need = "literal signs must be true or false"
            signs = iter(_checked(np.asarray([neg for _, neg in literals]), bool, need).tolist())
            canon_terms = []
            for term in terms:
                lits = tuple(sorted((next(variables), next(signs)) for _ in term))
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

    def _terms(self, output: int) -> tuple[Term, ...]:
        """The terms of one output; an index outside ``[0, n_outputs)``
        is a ``ValidationError``."""
        need = f"output index must be an integer in [0, {self.n_outputs})"
        return self.outputs[_checked(output, int, need, 0, self.n_outputs - 1)]

    def term_sets(self, output: int = 0) -> frozenset[frozenset[Literal]]:
        """Order-insensitive view of one output, for semantic-shape
        comparisons."""
        return frozenset(frozenset(term) for term in self._terms(output))

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
        terms = self._terms(output)
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
    idx = inner.rows @ _place_values(2, inner.n_outputs)
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
# exact minimisation: prime cubes and covers as bitsets
# ---------------------------------------------------------------------------


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _packed(hits: np.ndarray) -> list[int]:
    """Each row of a bool matrix as one int, column ``j`` at bit ``j``."""
    return [int.from_bytes(r.tobytes(), "little") for r in np.packbits(hits, 1, bitorder="little")]


def _prime_cubes(column: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prime implicants of the on-set as ``(value, mask)`` arrays in
    ``(mask, value)`` order, read off a ternary cube table (digit 2 is
    "either"): a cube is prime when no 0/1 digit widens to 2."""
    t = np.zeros((3,) * n, dtype=bool)
    t[(slice(0, 2),) * n] = column.reshape((2,) * n)
    axes = [(slice(None),) * a for a in range(n)]
    for ax in axes:
        t[ax + (2,)] = t[ax + (0,)] & t[ax + (1,)]
    prime = t.copy()
    for ax in axes:
        prime[ax + (slice(2),)] &= ~t[ax + (slice(2, 3),)]
    digits = fiber_digits(np.flatnonzero(prime), 3, n)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int16)  # n <= MAX_SIMPLIFY_INPUTS
    value, mask = ((digits == d) @ weights for d in (1, 2))
    order = np.lexsort((value, mask))
    return value[order], mask[order]


def _cheapest_cover(left: int, allowed: int, rows: list[int], cols: list[int], cost: list[int],
                    cubes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The cover of the ``left`` minterm bits by ``allowed`` prime bits
    with the least ``(cube count, literal count, cube list)``, by branch
    and bound.  Each node takes essential primes, drops minterms whose
    primes include another's and primes that a strictly cheaper prime
    contains (none of which can lose a tie), bounds by a greedy set of
    minterms no two of which share a prime, and branches on the minterm
    with the fewest primes, later siblings excluding those tried."""
    best: tuple = (float("inf"),)

    def search(left: int, allowed: int, chosen: tuple[int, ...]) -> None:
        nonlocal best
        while True:
            opts = {j: cols[j] & allowed for j in _bits(left)}
            if not all(opts.values()):
                return
            single = next((o for o in opts.values() if not o & (o - 1)), 0)
            if single:
                p = single.bit_length() - 1
                chosen, left, allowed = chosen + (p,), left & ~rows[p], allowed & ~single
                continue
            rest, kept = 0, []
            for j in sorted(opts, key=lambda j: opts[j].bit_count()):
                if all(o & ~opts[j] for o in kept):
                    rest, kept = rest | 1 << j, kept + [opts[j]]
            reach = {p: rows[p] & rest for p in _bits(allowed)}
            useful = sum(1 << p for p, pm in reach.items() if pm and all(
                cost[q] >= cost[p] or pm & ~qm for q, qm in reach.items()))
            if (rest, useful) == (left, allowed):
                break
            left, allowed = rest, useful
        lits = sum(cost[p] for p in chosen)
        if not left:
            best = min(best, (len(chosen), lits, [cubes[p] for p in sorted(chosen)]))
            return
        size, used = len(chosen), 0
        for o in sorted(opts.values(), key=int.bit_count):
            if not o & used:
                size, lits, used = size + 1, lits + min(cost[p] for p in _bits(o)), used | o
        if (size, lits) > best[:2]:
            return
        target = min(opts.values(), key=int.bit_count)
        for p in sorted(_bits(target), key=lambda p: (-(rows[p] & left).bit_count(), cost[p], p)):
            search(left & ~rows[p], allowed & ~(1 << p), chosen + (p,))
            allowed &= ~(1 << p)

    search(left, allowed, ())
    return best[2]


def _minimum_cover(column: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Exact minimum cover of the on-set by ``(value, mask)`` cubes in ``(mask, value)``
    order: essential primes and dominance, then the cyclic core's cheapest cover."""
    value, mask = _prime_cubes(column, n)
    hits = (np.flatnonzero(column).astype(np.int16) & ~mask[:, None]) == value[:, None]
    rows, cols = _packed(hits), _packed(hits.T)
    cost = [n - int(m).bit_count() for m in mask]
    cubes = [(int(v), int(m)) for v, m in zip(value, mask)]
    cover: list[tuple[int, int]] = []
    uncovered, active = (1 << hits.shape[1]) - 1, list(range(len(cubes)))
    while uncovered:
        # essential primes: the lowest minterm with a single remaining cover
        once = twice = 0
        for p in active:
            once, twice = once | rows[p], twice | (once & rows[p])
        single = once & ~twice & uncovered
        if single:
            p = next(p for p in active if rows[p] & (single & -single))
            cover.append(cubes[p])
            active.remove(p)
            uncovered &= ~rows[p]
            continue
        # prime dominance, in (mask, value) order: drop primes whose
        # remaining coverage a no-more-expensive competitor contains;
        # on a symmetric tie keep the canonically smaller cube
        before = len(active)
        for p in list(active):
            pm = rows[p] & uncovered
            if not pm or any(
                q != p and not pm & ~(rows[q] & uncovered) and cost[q] <= cost[p]
                and (q < p or rows[q] & uncovered != pm or cost[q] < cost[p])
                for q in active
            ):
                active.remove(p)
        if len(active) == before:
            break
    if uncovered:
        cover += _cheapest_cover(uncovered, sum(1 << p for p in active), rows, cols, cost, cubes)
    return sorted(cover, key=lambda c: (c[1], c[0]))


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
            cubes = _minimum_cover(table.column(o).astype(bool), n)
        else:
            cubes = [(m, 0) for m in ons]
        outputs.append(tuple(_cube_to_term(c, n) for c in cubes))
    names = tuple(var_names) if var_names is not None else None
    return DnfFormula(n, tuple(outputs), var_names=names)
