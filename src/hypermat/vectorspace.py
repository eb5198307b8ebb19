"""Vectors and covectors of matroids over hyperfields.

One search, ``_orthogonal_points``, finds the points of a product of
candidate entries that are orthogonal to every cocircuit: coordinates are
assigned depth first, and at the coordinate that closes a cocircuit's
support only the entries that leave zero in its pairing are visited.  It
yields rows of indices into the candidates.  Enumeration runs it over the
window box (windowed and budget-checked); perfection and ``matroid vectors
--enumerate`` keep its rows (``box_rows``), which sort in ``sort_key``
order.  The partition dichotomy and (V3) beyond the window box take its
first point over their own candidates.  Generation follows the stringent
fast paths (composition closure and singleton hypersums of scaled
circuits, capped at corank many factors) and must agree with enumeration
on the same window.
Also: perfection (checked on scaling classes) and the vector axioms with
reconstruction.  Every per-call table codes elements as a ``BoxCode``
does; the search and the perfection check decide pairings with a
``PairingFold``, a ``BoxCode`` whose int states are partial pairing sums.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass

from .errors import (
    DomainMismatchError,
    HypermatError,
    InvalidInputError,
    InvalidSignatureError,
    ResourceLimitError,
    TheoremViolationError,
)
from .hmatroid import (
    HMatroid,
    HVector,
    PairingFold,
    _support_mask,
    hmatroid_from_circuits,
    normalize_vector,
    zero_in_sum,
    zero_vector,
)
from .hyperfields import BoxCode, HElement, Hyperfield, capped_power, composition, count_text

CANDIDATE_BUDGET = 10**8


def check_budget(field: Hyperfield, ground, window: int):
    """The number of candidates, |box|^|E|; ResourceLimitError past
    ``CANDIDATE_BUDGET``, with no power past ``COUNT_CAP`` computed."""
    n = field.elements_box_size(window)
    total = None if n is None else capped_power(n, len(tuple(ground)))
    if total is None or total > CANDIDATE_BUDGET:
        raise ResourceLimitError(
            f"enumeration of {count_text(total)} candidates exceeds the budget of {CANDIDATE_BUDGET}"
        )
    return total


def vectors_enumerate(M: HMatroid, window: int = 4) -> frozenset[HVector]:
    """All windowed vectors: the box points orthogonal to every cocircuit.

    The search is ``_orthogonal_points`` with the window box as every
    coordinate's domain, in the order of ``_closing_order``.  The budget
    bounds the box, not the work done, which is usually far less.
    """
    check_budget(M.field, M.ground, window)
    box = M.field.elements_box(window)
    return frozenset(HVector(M.field, M.ground, tuple([box[c] for c in row])) for row in box_rows(M, box))


def box_rows(M: HMatroid, box):
    """The vectors of M in the window ``box``, as rows of indices into it."""
    return _orthogonal_points(M, [box] * len(M.ground), _closing_order(M))


def _first_point(M: HMatroid, domains, order) -> HVector | None:
    """The first point ``_orthogonal_points`` finds, or None."""
    row = next(_orthogonal_points(M, domains, order), None)
    return None if row is None else HVector(M.field, M.ground, tuple([dom[c] for dom, c in zip(domains, row)]))


def _orthogonal_points(M: HMatroid, domains, order):
    """Each point of the product of ``domains`` (candidate entries per
    coordinate) that is orthogonal to every cocircuit representative of M,
    as the row of its indices into the domains, in ground order.

    Coordinates are assigned depth first in ``order``, as indices into their
    domains, so points come out in lexicographic order over ``order``.  A
    cocircuit's pairing reads a point only on the cocircuit's support, so
    each representative is due at the depth where the last coordinate of
    its support is assigned, and only the candidates that close it to a
    pairing containing zero are visited there.  The pairing is decided by a
    ``PairingFold`` over the codes of the ``H.mul`` products (the vector
    entry is the left factor; a zero product adds no term): at each node,
    the terms of a due cocircuit's other support coordinates are folded into
    a state, and the passing candidates of the closing coordinate, ascending,
    are looked up per tuple of due states in a memo kept for the call.  A
    depth's term columns (per domain and cocircuit entry, shared) are built
    on its first visit.  Coordinates in no cocircuit support (the loops) are
    never tested.
    """
    H, ground, n = M.field, M.ground, len(order)
    if not n:
        yield ()
        return
    fold = PairingFold(H)
    moves, zero, add = fold.moves, fold.zero, fold.add
    depth = {i: d for d, i in enumerate(order)}
    closing = [[] for _ in order]
    for Y in M.cocircuits.reps:
        at = [j for j, y in enumerate(Y.entries) if not y.is_zero]
        closing[max(depth[j] for j in at)].append((Y.entries, at))
    ids, columns = list(map(id, domains)), {}

    def column(j, y):
        """The term code of each entry of domain j times y, shared by every
        coordinate with the same domain and y."""
        key = (ids[j], y.residue, y.grade)
        if key not in columns:
            code, mul = fold.code, H.mul
            columns[key] = [code(mul(x, y)) for x in domains[j]]
        return columns[key]

    # per depth: its due tests, as ([(j, column)] off the closing coordinate,
    # closing column), built on first visit; the passing candidates per
    # tuple of due states (all of them when none is due); and the candidate
    # list being walked, with its length and the next position
    tests = [None] * n
    memos = [{} for _ in order]
    lists = [None] * n
    ends = [0] * n
    pos = [0] * n
    codes = [0] * len(ground)
    d = 0
    while d >= 0:
        if lists[d] is None:
            i = order[d]
            due = tests[d]
            if due is None:
                due = tests[d] = [
                    ([(j, column(j, ys[j])) for j in at if j != i], column(i, ys[i]))
                    for ys, at in closing[d]
                ]
            key = ()
            for others, _ in due:
                s = 0
                for j, col in others:
                    t = col[codes[j]]
                    row = moves[s]
                    s = row[t] if t in row else add(s, t)
                key += (s,)
            memo = memos[d]
            if key not in memo:
                cands = range(len(domains[i]))
                for s, (_, last) in zip(key, due):
                    row = moves[s]
                    cands = [c for c in cands if zero[row[t] if (t := last[c]) in row else add(s, t)]]
                memo[key] = cands
            lists[d] = memo[key]
            ends[d], pos[d] = len(lists[d]), 0
            if d + 1 == n:  # the last coordinate: every candidate closes a point
                for codes[i] in lists[d]:
                    yield tuple(codes)
                pos[d] = ends[d]
        p = pos[d]
        if p == ends[d]:
            lists[d] = None
            d -= 1
            continue
        pos[d] = p + 1
        codes[order[d]] = lists[d][p]
        d += 1


def _closing_order(M: HMatroid) -> list[int]:
    """A coordinate order that closes cocircuit supports early.

    Greedy and deterministic: the next coordinate is the least unassigned
    index of the support with the fewest unassigned indices (ties go to the
    lexicographically least index list).  Loops come last, in index order.
    """
    supports = [
        [i for i, x in enumerate(Y.entries) if not x.is_zero] for Y in M.cocircuits.reps
    ]
    order: list[int] = []
    while True:
        open_ = [[i for i in s if i not in order] for s in supports]
        open_ = [s for s in open_ if s]
        if not open_:
            break
        order.append(min(open_, key=lambda s: (len(s), s))[0])
    return order + [i for i in range(len(M.ground)) if i not in order]


def covectors_enumerate(M: HMatroid, window: int = 4) -> frozenset[HVector]:
    """All windowed covectors: the vectors of the dual."""
    return vectors_enumerate(M.dual(), window)


def compose_vectors(V: HVector, W: HVector) -> HVector:
    H = V.field
    return HVector(H, V.ground, tuple(H.compose(a, b) for a, b in zip(V.entries, W.entries)))


def _in_box(x: HElement, window: int, spread: int = 0) -> bool:
    """Is x zero or a unit whose grade coordinates all lie in
    [-(window + spread), window]?"""
    return x.is_zero or all(-window - spread <= c <= window for c in x.grade)


def _within_box(V: HVector, window: int, spread: int = 0) -> bool:
    """Is every entry of V in the window box, stretched by ``spread`` below?"""
    return all(_in_box(x, window, spread) for x in V.entries)


def _grade_spread(sig) -> int:
    spread = 0
    for rep in sig.reps:
        coords = [c for x in rep.entries if not x.is_zero for c in x.grade]
        if coords:
            spread = max(spread, max(coords) - min(coords))
    return spread


def vectors_generate(M: HMatroid, window: int = 4) -> frozenset[HVector]:
    """Stringent fast path for the vector set.

    Builds all compositions of at most corank many scaled circuits (for
    Krasner and sign residues, where composition never shrinks supports;
    for field residues only support-preserving compositions), together with
    all singleton iterated hypersums, then filters to the window box.
    """
    H = M.field
    r_star = M.corank
    spread = _grade_spread(M.circuits)
    pool = [
        v
        for v in M.circuits.scalings(window + spread)
        if _within_box(v, window, spread)
    ]
    results = set(pool)
    residue = H.residue_kind
    closed_supports = residue in ("krasner", "sign")
    layer = set(pool)
    for _ in range(max(r_star - 1, 0)):
        new = set()
        for V in layer:
            for W in pool:
                VW = compose_vectors(V, W)
                if closed_supports or VW.support == V.support | W.support:
                    new.add(VW)
        layer = new - results
        results |= layer
    if residue in ("sign", "field"):
        for size in range(2, r_star + 1):
            for combo in itertools.combinations_with_replacement(pool, size):
                total = _vector_hypersum(combo)
                if total is not None:
                    results.add(total)
    results = {V for V in results if _within_box(V, window)}
    results.add(zero_vector(H, M.ground))
    return frozenset(results)


def _vector_hypersum(vectors) -> HVector | None:
    """The unique member of the pointwise hypersum, or None if not a singleton."""
    H = vectors[0].field
    entries = []
    for i in range(len(vectors[0].ground)):
        s = H.hyperadd_multi([v.entries[i] for v in vectors])
        elt = s.the_singleton()
        if elt is None:
            return None
        entries.append(elt)
    return HVector(H, vectors[0].ground, tuple(entries))


def is_perfect(M: HMatroid, window: int = 4, vectors=None, covectors=None):
    """Is every windowed vector orthogonal to every windowed covector?

    Checked on scaling classes.  Scaling the left factor of a pairing by a
    and the right factor by b turns its value S into a·S·b, and 0 ∈ S iff
    0 ∈ a·S·b.  So the left classes of the nonzero vectors (over H) are
    tested against those of the nonzero covectors (over H^op, so right
    classes in H), coded and normalized on ints; zero is orthogonal to
    everything (see ``_classes_orthogonal``).  A set not given is the
    ``box_rows`` of M or of its dual: the window box is coded first, so a
    box index is its own code and no vector is built.  Only when a class
    pair fails are the vectors and covectors scanned pairwise in sort
    order, on one ``PairingFold``, so the witness is the least failing pair.
    """
    H = M.field
    if any(V.field != F or V.ground != M.ground
           for F, xs in ((H, vectors), (H.op(), covectors)) if xs is not None for V in xs):
        raise DomainMismatchError("vectors live over different hyperfields or grounds")
    fold = PairingFold(H)
    if vectors is None or covectors is None:
        check_budget(H, M.ground, window)
        box = H.elements_box(window)
        for x in box:
            fold.code(x)
    code = lambda xs: [tuple(map(fold.code, V.entries)) for V in xs]
    v_rows = box_rows(M, box) if vectors is None else code(vectors)
    u_rows = box_rows(M.dual(), box) if covectors is None else code(covectors)
    if _classes_orthogonal(fold, v_rows, u_rows):
        return True, None
    # a class pair failed, so some pair of its members fails
    vs = vectors_enumerate(M, window) if vectors is None else vectors
    us = vectors_enumerate(M.dual(), window) if covectors is None else covectors
    pairs_to_zero = PairingFold(H).pairs_to_zero
    us = [(U, _support_mask(U)) for U in sorted(us, key=lambda u: u.sort_key())]
    return False, next((V, U) for V in sorted(vs, key=lambda v: v.sort_key()) for U, u_mask in us
                       if not pairs_to_zero(V.entries, U.entries, _support_mask(V) & u_mask))


def _classes_orthogonal(fold: PairingFold, vectors, covectors) -> bool:
    """Is every vector (over H) orthogonal to every covector (over H^op)?

    Both are given as rows of ``fold`` codes, and the vector is the left
    factor of the pairing.  Each nonzero row is normalized on ints (its
    first nonzero code's inverse times it on the left for a vector, it times
    that inverse on the right for a covector), so only one row per scaling
    class is kept.  The sorted vector rows form a trie, held level by
    level.  The sorted covector rows are walked in order, and each keeps,
    per level, the fold state of every vector node on it; only the levels
    below the prefix a covector shares with the one before are stepped
    again, from their parents' states, over the tabled ``mul`` codes of
    each vector entry with the covector's entry.  So a prefix shared on
    either side is folded once.
    """
    moves, zero, add = fold.moves, fold.zero, fold.add
    levels = _trie_levels(sorted(_coded_classes(fold, vectors)))
    u_rows = sorted(_coded_classes(fold, covectors, right_factor=True))
    entries = range(len(fold.elements))
    table = {}
    states = [[0]] + [None] * len(levels)  # per level: the state of each vector node on it
    last = ()  # the covector before; rows are distinct, so they differ somewhere
    for u in u_rows:
        for k in range(next((j for j, (a, b) in enumerate(zip(u, last)) if a != b), 0), len(levels)):
            col = table.get(u[k])
            if col is None:
                col = table[u[k]] = [fold.mul(a, u[k]) for a in entries]
            above = states[k]
            states[k + 1] = [row[t] if (t := col[a]) in (row := moves[above[p]]) else add(above[p], t)
                             for p, a in levels[k]]
        if not all(map(zero.__getitem__, states[-1])):
            return False
        last = u
    return True


def _trie_levels(rows) -> list[list[tuple[int, int]]]:
    """The trie of the sorted rows, level by level: per node, the position
    of its parent on the level above and its code.  Empty without rows."""
    levels = [[] for _ in rows[0]] if rows else []
    last = ()
    for v in rows:
        for k in range(next((j for j, (a, b) in enumerate(zip(v, last)) if a != b), 0), len(v)):
            levels[k].append((len(levels[k - 1]) - 1 if k else 0, v[k]))
        last = v
    return levels


def _coded_classes(fold: PairingFold, rows, right_factor=False) -> set[tuple[int, ...]]:
    """The nonzero rows of codes, each scaled so that its first nonzero
    entry is 1: from the left, or from the right for the rows that are the
    right factor of the fold's product.  Per first nonzero code, a table
    gives the scaled code of each entry code, filled on first use."""
    H = fold.field
    tables = {}
    classes = set()
    for row in rows:
        a = next((c for c in row if c), 0)
        if not a:
            continue
        scaled = tables.get(a)
        if scaled is None:
            b = fold.code(H.inv(fold.elements[a]))
            scaled = tables[a] = functools.cache(lambda c, b=b: fold.mul(c, b) if right_factor else fold.mul(b, c))
        classes.add(tuple(map(scaled, row)))
    return classes


# -- vector axioms ----------------------------------------------------------


def check_vector_axioms(vectors, window: int = 4, matroid=None) -> list[dict]:
    """(V0), windowed (V1), (V2)'/(V2)'', and (V3) for a finite vector set.

    The set is read as the vectors of a left matroid, so (V1) asks for left
    scalings.  Scalings and compositions are only required to be present
    when they stay inside the window box.  An eliminant for (V3) must be in the set when it
    fits the box; eliminants whose entries dip below the box are searched
    for with ``_orthogonal_points`` against cocircuits: those of ``matroid``
    when the set is known to be its windowed vector set, else those of the
    matroid rebuilt from the set, which raises InvalidInputError if that
    fails (say, the window is narrower than the circuits' grade spread).
    At rank 0 nothing leaves the box, so no matroid is read or rebuilt.

    Entries are coded by a ``BoxCode`` (see ``_EntryTable``), so each
    hypersum and product of two entries is computed once.  (V2')/(V2'') map
    each of V's per-coordinate tables over that coordinate's column of
    codes, which gives V∘W (and V+W) for every W at once; only a V with a
    missing in-box result is scanned W by W, for the witnesses in order.
    (V3) only visits pairs of vectors with opposite entries somewhere, and
    looks their in-box eliminants up by zero pattern: the rows that match
    the singleton sums off the loose coordinates (``_EntryTable.matching``).
    Its verdicts depend on a pair only through the hypersum at each
    coordinate, so they are kept per tuple of hypersum ids for the call.
    """
    vectors = frozenset(vectors)
    if not vectors:
        return [{"check": "V0", "witness": None}]
    some = next(iter(vectors))
    H, ground = some.field, some.ground
    if any(V.field != H or V.ground != ground for V in vectors):
        raise DomainMismatchError("vectors live over different hyperfields or grounds")
    report = []
    if zero_vector(H, ground) not in vectors:
        report.append({"check": "V0", "witness": None})
    recon = matroid
    if recon is None and H.rank and any(not v.is_zero for v in vectors):
        try:
            recon = reconstruct_from_vectors(vectors)
        except HypermatError as err:
            msg = f"no matroid rebuilt from the vectors at window {window} ({err}); pass matroid="
            raise InvalidInputError(msg) from err
    scalars = H.units_box(2 * window) if H.rank else H.units_box(0)
    ordered = sorted(vectors, key=lambda v: v.sort_key())
    table = _EntryTable(ordered, window)
    rows, present = table.rows, table.present
    scaled = table.scalings(scalars)
    for V, v in zip(ordered, rows):
        for a, products in zip(scalars, scaled):
            aV = tuple([products[c] for c in v])
            if None not in aV and aV not in present:
                report.append({"check": "V1", "witness": {"a": a, "V": V}})
    table.add_pairs()
    field = H.residue_kind == "field"
    columns = list(zip(*rows))
    for V, v in zip(ordered, rows):
        composed = [table.composed[a] for a in v]
        singles = [table.single_in_box[a] for a in v]
        # every V∘W (and V+W) at once, a column map per coordinate; the
        # per-W scan below runs only for a V with an in-box result missing
        results = set(zip(*map(map, [c.__getitem__ for c in composed], columns)))
        if field:
            results.update(zip(*map(map, [s.__getitem__ for s in singles], columns)))
        if all(None in r for r in results.difference(present)):
            continue
        for W, w in zip(ordered, rows):
            VW = tuple([c[b] for c, b in zip(composed, w)])
            if None not in VW and VW not in present:
                report.append({"check": "V2'", "witness": {"V": V, "W": W}})
            if field:
                total = tuple([s[b] for s, b in zip(singles, w)])
                if None not in total and total not in present:
                    report.append({"check": "V2''", "witness": {"V": V, "W": W}})
    slack = window + _grade_spread(recon.circuits) + 1 if recon is not None else window
    zero = table.zero
    negated = {a: table.code(H.neg(table.elements[a])) for a in set().union(*rows) if a != zero}
    # holders[k][a]: ascending positions of the vectors with entry a at coordinate k
    holders = [{} for _ in ground]
    for j, row in enumerate(rows):
        for k, a in enumerate(row):
            holders[k].setdefault(a, []).append(j)
    # the hypersum ids of two vectors decide every (V3) verdict on them:
    # per tuple of ids, the verdict of each cancelling coordinate met so far
    memo: dict[tuple[int, ...], dict[int, bool]] = {}
    for i, (V, v) in enumerate(zip(ordered, rows)):
        sums = [table.sum_id[a] for a in v]
        # hits[j]: ascending coordinates where vector j cancels V
        hits: dict[int, list[int]] = {}
        for k, a in enumerate(v):
            if a != zero:
                js = holders[k].get(negated[a], ())
                for j in js[bisect.bisect_left(js, i):]:
                    hits.setdefault(j, []).append(k)
        for j in sorted(hits):
            w = rows[j]
            verdicts = memo.setdefault(tuple(map(dict.__getitem__, sums, w)), {})
            for k in hits[j]:
                ok = verdicts.get(k)
                if ok is None:
                    ok = verdicts[k] = _v3_eliminant_exists(table, v, w, k, recon, slack)
                if not ok:
                    report.append({"check": "V3", "witness": {"V": V, "W": ordered[j], "e": ground[k]}})
    return report


class _EntryTable(BoxCode):
    """One vector set coded by a ``BoxCode``, plus entry-pair tables.

    Lives for one ``check_vector_axioms`` call.  ``in_box[c]`` tells whether
    code c lies in the window box; ``code`` sets it when it makes c.  ``rows``
    holds the coded entries of each vector and ``present`` their set; the
    hypersum of codes ``a, b`` is ``sets[sum(a, b)]``.  ``add_pairs`` visits
    every pair of entries that meets at some coordinate once; those are exactly
    the pairs that composing every two vectors computes.  Per pair ``a, b``
    (codes), ``sum_id[a][b]`` is ``sum(a, b)``; ``composed[a][b]`` is the code
    of the composition when (V2') asks for it at that coordinate, that is when
    it is inside the window box and keeps the union support (always, over a
    Krasner or sign residue); else None.  ``single[a][b]`` is the code of a
    singleton hypersum, else None, and ``single_in_box[a][b]`` the same inside
    the box, for (V2'').  These stay plain dicts because the quadratic
    (V2')/(V2'') and (V3) loops read them.  ``matching`` indexes the rows by
    their entries off each tuple of loose coordinates that (V3) meets.
    """

    def __init__(self, ordered, window: int):
        some = ordered[0]
        self.window = window
        self.in_box: list[bool] = []
        super().__init__(some.field, [some.field.zero()])
        self.zero = 0
        self.rows = [tuple(map(self.code, V.entries)) for V in ordered]
        self.present = set(self.rows)
        self.sum_id: dict[int, dict[int, int]] = {}
        self.single: dict[int, dict[int, int | None]] = {}
        self.single_in_box: dict[int, dict[int, int | None]] = {}
        self.composed: dict[int, dict[int, int | None]] = {}
        self._within: dict[tuple[int, int, int], list[int]] = {}
        self._indexes: dict[tuple[int, ...], dict] = {}

    def code(self, x: HElement) -> int:
        c = super().code(x)
        if c == len(self.in_box):
            self.in_box.append(_in_box(x, self.window))
        return c

    def scalings(self, scalars) -> list[list[int | None]]:
        """Per scalar a, the code of a·x for every entry code x of the
        vectors, or None where the product leaves the window box."""
        entries = range(len(self.elements))
        out = []
        for a in map(self.code, scalars):
            products = [self.mul(a, x) for x in entries]
            out.append([c if self.in_box[c] else None for c in products])
        return out

    def add_pairs(self):
        H = self.field
        checked = False
        for column in zip(*self.rows):
            met = sorted(set(column))
            for a in met:
                sum_id = self.sum_id.setdefault(a, {})
                single = self.single.setdefault(a, {})
                single_in_box = self.single_in_box.setdefault(a, {})
                composed = self.composed.setdefault(a, {})
                x = self.elements[a]
                for b in met:
                    if b in single:
                        continue
                    sum_id[b] = i = self.sum(a, b)
                    s = self.sets[i]
                    elt = s.the_singleton()
                    single[b] = c = None if elt is None else self.code(elt)
                    single_in_box[b] = c if c is not None and self.in_box[c] else None
                    # the first pair goes through H.compose, which refuses a
                    # hyperfield that is not stringent
                    y = self.elements[b]
                    xy = composition(x, s) if checked else H.compose(x, y)
                    checked = True
                    keeps = not xy.is_zero or (x.is_zero and y.is_zero)
                    c = self.code(xy)
                    composed[b] = c if keeps and self.in_box[c] else None

    def matching(self, fixed) -> list[tuple[int, ...]]:
        """The rows with a zero entry (the only possible eliminants) that equal
        ``fixed`` wherever it is not None, in ascending order.  Looked up in
        an index built on first use for each tuple of loose (None)
        coordinates, which keys the rows by their entries off them."""
        loose = tuple([k for k, c in enumerate(fixed) if c is None])
        index = self._indexes.get(loose)
        if index is None:
            index = self._indexes[loose] = {}
            for z in self.rows:
                if self.zero in z:
                    index.setdefault(tuple([c for k, c in enumerate(z) if k not in loose]), []).append(z)
        return index.get(tuple([c for c in fixed if c is not None]), [])

    def within(self, a: int, b: int, radius: int) -> list[int]:
        """Codes of the members of the sum of a and b inside the radius box, sorted."""
        key = (a, b, radius)
        if key not in self._within:
            self._within[key] = [self.code(x) for x in self.sets[self.sum(a, b)].elements_within(radius)]
        return self._within[key]


def _v3_eliminant_exists(table, v, w, ei, recon, slack) -> bool:
    """Does (V3) hold for the coded vectors v, w, which cancel at ei?

    Per coordinate, ``fixed`` holds the singleton-sum code, None on the
    loose coordinates, where the hypersum is not a singleton; ``loose``
    pairs each of those with its hypersum members in the window box, and
    the candidates are the rows equal to ``fixed`` off them
    (``table.matching``).  True if a candidate is zero at ei and a listed
    member on every loose coordinate.  Else true if the first eliminant of
    ``recon`` that ``_orthogonal_points`` finds among the hypersum members
    within ``slack`` leaves the window box, so the set could not hold it.
    """
    pairs = list(zip(v, w))
    fixed = [table.single[a][b] for a, b in pairs]
    loose = [(k, table.within(*pairs[k], table.window)) for k, c in enumerate(fixed) if c is None]
    candidates = table.matching(fixed)
    zero, elements = table.zero, table.elements
    # zero is a member of the sum at ei, so ei need not be skipped
    if any(z[ei] == zero and all(z[i] in m for i, m in loose) for z in candidates):
        return True
    if recon is None or table.field.rank == 0:
        return False
    # no in-box member: the first eliminant of recon, in pick order, whose
    # entries may escape the box decides; w[ei] = -v[ei], so by (H1) the
    # singleton sum at ei, if any, is {0}
    free = [i for i, m in loose if i != ei]
    domains = [[elements[zero if c is None else c]] for c in fixed]
    for i in free:
        domains[i] = [elements[c] for c in table.within(*pairs[i], slack)]
    order = [i for i in range(len(fixed)) if i not in free] + free
    Z = _first_point(recon, domains, order)
    return Z is not None and not _within_box(Z, table.window)


def reconstruct_from_vectors(vectors, side: str = "left") -> HMatroid:
    """Left matroid whose circuits are the minimal nonzero vectors; ``side``
    is only its label."""
    vectors = frozenset(vectors)
    nonzero = [v for v in vectors if not v.is_zero]
    if not nonzero:
        raise InvalidSignatureError("no nonzero vectors to reconstruct from")
    some = nonzero[0]
    sups = {v.support for v in nonzero}
    minimal = [v for v in nonzero if not any(s < v.support for s in sups)]
    classes = {normalize_vector(v) for v in minimal}
    return hmatroid_from_circuits(some.field, some.ground, sorted(classes, key=lambda v: v.sort_key()), side)


# -- partition dichotomy ----------------------------------------------------


@dataclass(frozen=True)
class FarkasWitness:
    kind: str  # "vector" | "cocircuit"
    vec: HVector


def farkas_witness(M: HMatroid, partition, window: int = 4, weak: bool = False) -> FarkasWitness:
    """Either a vector that is 1 on G, small on R and 0 on B, or a cocircuit
    that is bounded by 1 on R and G, hits 1 on G, and has a zero-free G-sum.

    ``partition`` maps "R", "G" and "B" to element labels; a missing part is
    empty.  The strict form bounds the vector strictly below 1 on R; the
    weak flag swaps the strictness between the two branches.  The two
    branches are mutually exclusive, so the search order does not matter.
    """
    R, G, B = (frozenset(partition.get(k, ())) for k in ("R", "G", "B"))
    if R | G | B != frozenset(M.ground) or R & G or R & B or G & B:
        raise InvalidInputError("not a partition of the ground set")
    found = _farkas_cocircuit(M, R, G, weak)
    if found is not None:
        return FarkasWitness("cocircuit", found)
    found = _farkas_vector(M, R, G, window, weak)
    if found is not None:
        return FarkasWitness("vector", found)
    raise TheoremViolationError(
        f"no dichotomy witness within window {window}",
        witness={"R": sorted(R), "G": sorted(G), "B": sorted(B)},
    )


def _farkas_cocircuit(M, R, G, weak):
    H, ground, one = M.field, M.ground, M.field.one()
    g_at = [ground.index(e) for e in sorted(G)]
    r_at = [ground.index(e) for e in sorted(R)]
    for Y in M.cocircuits.reps:
        on_g = [x for i in g_at if not (x := Y.entries[i]).is_zero]
        if not on_g:
            continue
        m_g = max(x.grade for x in on_g)
        on_r = [x.grade for i in r_at if not (x := Y.entries[i]).is_zero]
        # on R, Y may not top its grade on G (nor reach it, if weak)
        if on_r and (max(on_r) >= m_g if weak else max(on_r) > m_g):
            continue
        # the G-sum pairs Y with 1 on G, and each term x·1 is x itself
        if zero_in_sum(H, on_g):
            continue
        # the shift to top grade zero on G is the unit 1 when that grade is
        # already zero, and Y·1 is Y: every rank-0 hit needs no scaling
        if not any(m_g):
            return Y
        return Y.scale_left(HElement(one.residue, tuple(-c for c in m_g)))
    return None


def _farkas_vector(M, R, G, window, weak):
    """The first vector that is 1 on G, 0 off R and G, and takes values below
    1 (at most 1 if weak) on R, with R's values picked in label order."""
    H = M.field
    zero = H.zero()
    zero_grade = (0,) * H.rank
    if H.rank == 0:
        r_vals = [zero] + ([HElement(r) for r in H.residue_units()] if weak else [])
    elif weak:
        r_vals = [zero] + [x for x in H.units_box(window) if x.grade <= zero_grade]
    else:
        r_vals = [zero] + [x for x in H.units_box(window) if x.grade < zero_grade]
    ground = M.ground
    domains = [r_vals if e in R else [H.one()] if e in G else [zero] for e in ground]
    order = [i for i, e in enumerate(ground) if e not in R] + [ground.index(e) for e in sorted(R)]
    return _first_point(M, domains, order)
