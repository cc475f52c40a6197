"""Derived flag of the Pfaffian system annihilating a control system.

Pipeline: annihilator -> coframe completion -> torsion matrix -> left
null-space -> derived system, iterated until the rank stabilizes.  Entries
are reduced elements of the system's field, whose numerators are normal
forms modulo sin**2 + cos**2 - 1, so a rank decision is the exact test
`not f`.  The pivot blocks of a coframe completion are minors of one
kept-minor expansion (`expr.minors`), and vectors are cleared of
denominators in integers wherever the denominators or entries are
constants.  certify_rank proves each symbolic rank attained by evaluating
the rows exactly at a rational point.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DM

from .dsl import ControlAffineSystem
from .errors import (
    AnnihilationFailure,
    FlagNotDecreasing,
    NoValidCompletion,
    RankNotConstant,
)
from .expr import (
    common_denominator,
    factor,
    from_field,
    minors,
    numerator_over,
    reduce_fraction,
    to_text,
)
from .forms import (
    coefficient_vector,
    contract,
    d,
    form_to_text,
    one_form,
    pivot_solution,
    reduce_mod,
)

CERTIFY_POINTS = 8  # points tried before a symbolic rank counts as unattained


@dataclass(frozen=True)
class PfaffianSystem:
    generators: tuple  # independent 1-forms
    pivots: tuple  # pivot coordinate indices, len == rank
    # field elements required nonzero (factors of accumulated pivot dets)
    constraints: tuple

    @property
    def rank(self):
        return len(self.generators)

    def coefficient_matrix(self):
        return [coefficient_vector(g) for g in self.generators]


@dataclass(frozen=True)
class TorsionMatrix:
    entries: tuple  # s rows, C(p,2) columns of field elements
    omega: tuple  # non-pivot coordinate indices (the coframe completion)
    labels: tuple  # column labels: (j,k) index pairs into omega

    @property
    def is_trivial(self):
        return not any(e for row in self.entries for e in row)

    def shape(self):
        return (len(self.entries), len(self.labels))


@dataclass(frozen=True)
class FlagLevel:
    system: PfaffianSystem
    torsion: TorsionMatrix | None  # None only for the empty terminal system


@dataclass(frozen=True)
class PfaffianFlag:
    levels: tuple  # FlagLevel, index = derived order
    nu: int
    q: int

    @property
    def type(self):
        return (self.nu, self.q)

    def dual_type(self, n):
        return (self.nu, n - self.q)

    @property
    def terminal(self):
        return self.levels[-1].system


# --- linear algebra over the system's rational-function field --------------

def rref(rows):
    """Reduced row echelon form of field-element rows.

    Returns (rows, pivot_columns).  The pivot row of a column is the first
    remaining row whose entry there is a nonzero constant, else the first
    with a nonzero entry: the reduced form does not depend on the choice,
    and a constant pivot divides without cancellation.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        nonzero = [i for i in range(r, nrows) if rows[i][c]]
        if not nonzero:
            continue
        best = next((i for i in nonzero if rows[i][c].numer.is_ground
                     and rows[i][c].denom.is_ground), nonzero[0])
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [reduce_fraction(e / piv) for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [reduce_fraction(a - f * b)
                           for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def nullspace(rows, ctx):
    """Basis of the right null-space, denominator-cleared and primitive."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivot_cols = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    K = ctx.field
    basis = []
    for fc in free_cols:
        vec = [K.zero] * ncols
        vec[fc] = K.one
        for r, pc in enumerate(pivot_cols):
            vec[pc] = -red[r][fc]
        basis.append(clear_denominators(vec, ctx))
    return basis


def clear_denominators(vec, ctx):
    """Scale a vector to polynomial entries that are primitive over ZZ
    together, the first nonzero one with positive grlex leading
    coefficient.  Their content is the integer gcd of every coefficient
    when an entry is a nonzero constant, else their gcd in the field's
    ring, which is over ZZ, taken from the entry with the fewest terms up:
    both divide every entry exactly."""
    K = ctx.field
    vec = [reduce_fraction(e) for e in vec]
    L = common_denominator(vec)
    scaled = [numerator_over(e, L) for e in vec]
    nonzero = sorted(filter(None, scaled), key=len)
    if not nonzero:
        return vec
    if any(p.is_ground for p in nonzero):
        g = K.ring(math.gcd(*(int(c) for p in nonzero
                               for c in p.itercoeffs())))
    else:
        g = functools.reduce(lambda a, b: a.gcd(b), nonzero)
        g = -g if g.LC < 0 else g
    if next(filter(None, scaled)).LC < 0:
        g = -g
    if g.is_ground:
        return [K(p.quo_ground(g.LC)) for p in scaled]
    return [K(p.exquo(g)) for p in scaled]


def certify_rank(rows, rank, ctx):
    """Prove that field-element rows have rank `rank` (see `exact_rank`):
    one certification point above it, or none at it, raises RankNotConstant."""
    nr = exact_rank([rows], rank, certification_points(ctx.field))
    if nr is not None and nr > rank:
        raise RankNotConstant(f"rank {nr} > symbolic rank {rank}")
    if nr != rank:
        raise RankNotConstant(f"symbolic rank {rank} attained at none of "
                              f"{CERTIFY_POINTS} certification points")


def exact_rank(layers, cap, points):
    """Largest exact rank over QQ of layers of rows of field elements at
    exact points, such as `certification_points`, where it is at most the
    generic rank and a generic point attains it (Schwartz 1980; Zippel
    1979); stops at cap.  A point reads the layers in order only until its
    rank reaches cap, and each layer is read from `layers` once, when a
    point first needs it.  A point where a row it reads has a pole is
    passed over.  None when no point is left."""
    layers, read = iter(layers), []

    def each_layer():
        yield from read
        for layer in layers:
            read.append(layer)
            yield layer

    best = None
    for point in points:
        values = []
        try:
            for layer in each_layer():
                values += [[exact_value(e, point) for e in r] for r in layer]
                rank = DM(values, QQ).rank()
                if rank >= cap:
                    break
        except ZeroDivisionError:
            continue
        best = max(best or 0, rank)
        if best >= cap:
            break
    return best


def certification_points(K):
    """The CERTIFY_POINTS certification points of K, made as they are read."""
    return (_certify_point(K, k) for k in range(CERTIFY_POINTS))


def _certify_point(K, k):
    """The k-th certification point, a rational value per generator of K;
    each (sin v, cos v) pair is the circle point (2t, 1 - t**2)/(1 + t**2).
    Every declared symbol draws its value, then every one draws two more,
    the first the t of its pair, whether or not K has the pair: a
    generator's value does not depend on which pairs K has."""
    rng = random.Random(k)

    def draw():
        return QQ(rng.randint(-40, 40), rng.randint(1, 20))

    declared = [g for g in K.symbols if not isinstance(g, (sp.sin, sp.cos))]
    paired = {g.args[0] for g in K.symbols if isinstance(g, sp.sin)}
    point = [draw() for _ in declared]
    for v in declared:
        t, _ = draw(), draw()
        if v in paired:
            point += [2 * t / (1 + t**2), (1 - t**2) / (1 + t**2)]
    return point


def exact_value(f, point):
    """Exact value of a field element at a point, term by term (sympy's
    `evaluate` builds a ring per generator); ZeroDivisionError at a pole."""
    num, den = (sum((c * math.prod(v**e for v, e in zip(point, m) if e)
                     for m, c in p.items()), QQ.zero)
                for p in (f.numer, f.denom))
    return num / den


# --- pipeline stages ---------------------------------------------------------

def annihilator(sys: ControlAffineSystem) -> PfaffianSystem:
    """s = n - p independent 1-forms annihilating f and every g_j."""
    ctx = sys.ctx
    rows = sys.fields()
    basis = nullspace(rows, ctx)
    certify_rank(rows, sys.n - len(basis), ctx)
    generators = tuple(one_form(vec, ctx) for vec in basis)
    for g in generators:
        for X in rows:
            if contract(g, X):
                raise AnnihilationFailure(
                    "annihilator generator fails against "
                    f"{tuple(map(from_field, X))}")
    system = PfaffianSystem(generators=generators, pivots=(), constraints=())
    if not generators:
        return system
    return complete_coframe(system, ctx)


def complete_coframe(system: PfaffianSystem, ctx) -> PfaffianSystem:
    """Choose pivot coordinates with a nonzero s x s determinant.

    The non-pivot coordinate differentials complete the generators to a
    coframe; the pivot determinant's factors are recorded as domain
    constraints.  Coordinate combinations are scanned in lexicographic
    order; the first whose determinant is a nonzero constant or a product
    of known-nonzero factors wins, else the first with any nonzero
    determinant.  One expansion (`minors`) serves the whole scan: a
    block shares the minors of its lower rows with the blocks before it,
    and a block whose nonzero pattern has no perfect row-column matching
    expands to zero through them, with no reduction.
    """
    s = system.rank
    n = len(ctx.states)
    if s == 0:
        return system
    minor = minors(system.coefficient_matrix())
    fallback = None
    for combo in itertools.combinations(range(n), s):
        det = minor(combo)
        if ctx.known_nonzero(det):
            return _with_pivots(system, combo, det)
        if det and fallback is None:
            fallback = (combo, det)
    if fallback is not None:
        return _with_pivots(system, *fallback)
    raise NoValidCompletion("no coordinate completion with nonzero pivot "
                            "determinant")


def _with_pivots(system, combo, det):
    constraints = list(system.constraints)
    K = det.field
    for part in (det.numer, det.denom):
        if part.is_ground:
            continue
        for f, _ in factor(K(part)):
            if f not in constraints:
                constraints.append(f)
    return PfaffianSystem(generators=system.generators, pivots=tuple(combo),
                          constraints=tuple(constraints))


def torsion(system: PfaffianSystem, ctx) -> TorsionMatrix:
    """Torsion matrix of d(theta) modulo (theta) in the completed coframe;
    empty for the rank-0 system."""
    omega = tuple(i for i in range(len(ctx.states))
                  if i not in system.pivots)
    labels = tuple(itertools.combinations(range(len(omega)), 2))
    entries = []
    sol = pivot_solution(list(system.generators), list(system.pivots))
    for g in system.generators:
        reduced = reduce_mod(d(g), sol)
        row = []
        for j, k in labels:
            row.append(reduced.coeff((omega[j], omega[k])))
        entries.append(tuple(row))
    return TorsionMatrix(entries=tuple(entries), omega=omega, labels=labels)


def derived_system(system: PfaffianSystem, T: TorsionMatrix,
                   ctx) -> PfaffianSystem:
    """Generators of the next derived system from the left null-space of T."""
    s = system.rank
    if T.is_trivial:
        return system
    # column scaling by denominator clearing leaves the left null-space fixed
    cols = []
    for c in range(len(T.labels)):
        col = [T.entries[r][c] for r in range(s)]
        cols.append(clear_denominators(col, ctx))
    transposed = [[cols[c][r] for r in range(s)] for c in range(len(cols))]
    basis = nullspace(transposed, ctx)
    new_gens = []
    for a in basis:
        comb = [ctx.field.zero] * len(ctx.states)
        for coeff, g in zip(a, system.generators):
            vec = coefficient_vector(g)
            comb = [u + coeff * v for u, v in zip(comb, vec)]
        new_gens.append(one_form(clear_denominators(comb, ctx), ctx))
    out = PfaffianSystem(generators=tuple(new_gens), pivots=(),
                         constraints=system.constraints)
    if not new_gens:
        return out
    return complete_coframe(out, ctx)


def derived_flag(sys: ControlAffineSystem) -> PfaffianFlag:
    """Iterate derived systems to stabilization; type (nu, q) of the flag."""
    ctx = sys.ctx
    system = annihilator(sys)
    levels = []
    while True:
        if system.rank == 0:
            levels.append(FlagLevel(system=system, torsion=None))
            break
        T = torsion(system, ctx)
        levels.append(FlagLevel(system=system, torsion=T))
        if T.is_trivial:
            break
        nxt = derived_system(system, T, ctx)
        if nxt.rank >= system.rank:
            raise FlagNotDecreasing(
                f"derived system rank {nxt.rank} >= {system.rank}")
        system = nxt
    nu = len(levels) - 1
    q = levels[-1].system.rank
    for level in levels:
        certify_rank(level.system.coefficient_matrix(), level.system.rank, ctx)
    return PfaffianFlag(levels=tuple(levels), nu=nu, q=q)


def flag_summary(flag: PfaffianFlag, ctx) -> dict:
    """JSON-ready summary of the flag."""
    n = len(ctx.states)
    names = [str(s) for s in ctx.states]
    levels = []
    for level in flag.levels:
        system = level.system
        entry = {
            "rank": system.rank,
            "generators": [form_to_text(g) for g in system.generators],
            "pivots": [names[i] for i in system.pivots],
            "domain_constraints": [to_text(c) for c in system.constraints],
        }
        if level.torsion is not None:
            T = level.torsion
            entry["torsion"] = {
                "omega": [f"d{names[i]}" for i in T.omega],
                "columns": [f"d{names[T.omega[j]]}^d{names[T.omega[k]]}"
                            for j, k in T.labels],
                "entries": [[to_text(e) for e in row]
                            for row in T.entries],
            }
        levels.append(entry)
    return {
        "levels": levels,
        "type": list(flag.type),
        "distribution_type": list(flag.dual_type(n)),
    }
