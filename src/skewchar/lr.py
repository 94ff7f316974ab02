"""Littlewood-Richardson enumeration and skew character arithmetic.

`enumerate_lr_fillings` is a direct backtracking enumerator over the boxes
in reverse-row-word order; it yields each filling as its reverse row word,
the entries in that order.  `brute_decompose` enumerates the fillings of
every content in one pass and tallies their contents; that expansion is
the ground-truth oracle of the whole library, behind every `--verify` and
`durfee-product --exhaustive`, and it refuses past `lr.MAX_FILLINGS`
fillings.
`decompose_skew` runs the same lattice-filling search row by row but
merges partial fillings that agree on everything later rows can see: the
previous row's entries over the shared columns, which group the states,
and the running content counts.
The merge keeps multiplicities exact while collapsing the search tree.
The search reads the row spans once, counting the boxes itself, and
starts below the forced top block, the leading rows that share the first
row's inner part, whose only filling puts r in every box of row r.  A
diagram that is its block, a straight shape or a translate of one, is
answered from that start state with no row searched; so is one whose
rows all end in one column, the half-turn of the straight shape of its
row lengths, which has that shape's character.
The final counts are partitions by construction, so the sum keeps the
count tuples the search built, unvalidated; `CharacterSum.items()` and
`support()` are what make `Partition` objects of them.  `outer_product`
hands that search the row spans of the two factors side by side, the
heavier on top as its start state, and `schubert_product` the same with
its box capping each row as it is filled: one engine, as in Buch's
lrcalc, serves skew shapes, products and Schubert products.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator, Mapping, Sequence
from itertools import groupby, islice, pairwise

from .partitions import Partition, contains
from .skew import SkewDiagram


def enumerate_lr_fillings(
    shape: SkewDiagram, content: Partition | None = None
) -> Iterator[tuple[int, ...]]:
    """All LR fillings of the shape with the given content, or of any content, by backtracking.

    Each filling is yielded as its reverse row word: the entries row by
    row from the top, each row right to left.  With the shape, the word
    fixes the filling.  Boxes are filled in that order, smallest feasible
    entry first, so the output order is deterministic.  With no content,
    an entry in row i is at most i and no value's count is capped.
    """
    if content is not None and shape.size != content.weight:
        raise ValueError("content weight does not match the number of boxes")
    # per position in that order: the position of the box above it (-1 if
    # outside the shape) and whether the box to its right, always the
    # position just before it, is in the shape
    above: list[int] = []
    right: list[bool] = []
    prev_start = prev_a = prev_b = 0
    for a, b in shape.spans:
        start = len(above)
        for j in range(b, a, -1):
            above.append(prev_start + prev_b - j if prev_a < j <= prev_b else -1)
            right.append(j < b)
        prev_start, prev_a, prev_b = start, a, b
    total = len(above)
    if not total:
        yield ()
        return
    caps = (total,) * shape.num_rows if content is None else content.parts
    n = len(caps)
    counts = [0] * n
    vals = [0] * total
    # vals[:idx] are placed; v is the next value to try at position idx.
    # The search keeps its stack in vals, so no shape is too large for it.
    idx, v = 0, vals[above[0]] + 1 if above[0] >= 0 else 1
    while True:
        hi = vals[idx - 1] if right[idx] else n
        while v <= hi:
            c = counts[v - 1]
            if c < caps[v - 1] and (v == 1 or counts[v - 2] > c):
                break
            v += 1
        if v <= hi:
            counts[v - 1] += 1
            vals[idx] = v
            if idx + 1 < total:
                idx += 1
                v = vals[above[idx]] + 1 if above[idx] >= 0 else 1
                continue
            yield tuple(vals)
        else:
            if not idx:
                return
            idx -= 1
            v = vals[idx]
        counts[v - 1] -= 1
        v += 1


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity c(lam; mu, nu); zero unless mu fits lam and weights agree."""
    if not contains(mu, lam) or mu.weight + nu.weight != lam.weight:
        return 0
    return sum(1 for _ in enumerate_lr_fillings(SkewDiagram(lam, mu), nu))


# brute_decompose refuses once it counts more LR fillings than this; their
# number, the total multiplicity, is not bounded by the box count
MAX_FILLINGS = 500_000


class TooManyFillings(Exception):
    """`brute_decompose` counted more than `MAX_FILLINGS` LR fillings."""


def brute_decompose(a: SkewDiagram) -> CharacterSum:
    """Expansion by one enumeration of every LR filling, independent of `decompose_skew`.

    Each filling adds one to the multiplicity of its content.  The work
    grows with the total multiplicity, which the box count does not bound,
    so `TooManyFillings` is raised as soon as more than `MAX_FILLINGS`
    fillings are counted.
    """
    words = islice(enumerate_lr_fillings(a), MAX_FILLINGS + 1)
    # a sorted word is its content, value by value: tally those at C speed
    tally = Counter(map(tuple, map(sorted, words)))
    if sum(tally.values()) > MAX_FILLINGS:
        raise TooManyFillings(f"more than {MAX_FILLINGS} LR fillings")
    terms = {Partition(len(list(run)) for _, run in groupby(word)): c for word, c in tally.items()}
    return CharacterSum(a.size, terms)


class CharacterSum:
    """Decomposition into irreducibles: partitions of one weight with multiplicities.

    Terms are kept as parts tuples, the form the search builds them in;
    `items()` and `support()` wrap them as `Partition` objects.  Iteration
    is deterministic, lexicographically descending by partition.
    """

    __slots__ = ("_weight", "_terms")

    def __init__(self, weight: int, terms: Mapping[Partition, int]):
        self._weight = int(weight)
        self._terms: dict[tuple[int, ...], int] = {}
        for nu, mult in terms.items():
            if nu.weight != self._weight:
                raise ValueError(f"term {nu} has weight {nu.weight}, expected {self._weight}")
            if not isinstance(mult, int) or mult < 1:
                raise ValueError(f"multiplicity of {nu} must be a positive integer")
            self._terms[nu.parts] = mult

    @property
    def weight(self) -> int:
        return self._weight

    @classmethod
    def _trusted(cls, weight: int, terms: dict[tuple[int, ...], int]) -> "CharacterSum":
        """Adopt parts tuples the caller built valid: partitions of the weight, mults >= 1."""
        cs = object.__new__(cls)
        cs._weight, cs._terms = weight, terms
        return cs

    def _sorted_parts(self) -> list[tuple[int, ...]]:
        # tuple order is the order of Partition.__lt__, and sorting the keys
        # alone holds no (parts, mult) pair per term
        return sorted(self._terms, reverse=True)

    def items(self) -> list[tuple[Partition, int]]:
        terms = self._terms
        return [(Partition._trusted(parts), terms[parts]) for parts in self._sorted_parts()]

    def support(self) -> list[Partition]:
        return [nu for nu, _ in self.items()]

    def total_multiplicity(self) -> int:
        return sum(self._terms.values())

    def __getitem__(self, nu: Partition) -> int:
        return self._terms.get(nu.parts, 0)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.support())

    def __contains__(self, nu: Partition) -> bool:
        return nu.parts in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CharacterSum)
            and self._weight == other._weight
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"CharacterSum(weight={self._weight}, terms={len(self._terms)})"

    def to_json_dict(self) -> dict:
        return {
            "weight": self._weight,
            "terms": [
                {"partition": list(parts), "mult": self._terms[parts]}
                for parts in self._sorted_parts()
            ],
        }


def decompose_skew(diagram: SkewDiagram, box: tuple[int, int] | None = None) -> CharacterSum:
    """Expand a skew character into irreducibles, only those inside `box=(k, l)` if given.

    The box caps each row as it is filled: at most k ones, at most l values.
    """
    return _search(diagram.spans, box)


def _search(spans: Sequence[tuple[int, int]], box: tuple[int, int] | None) -> CharacterSum:
    """The merged search over the row spans (a, b] of a skew shape; it counts the boxes itself.

    One pass over the spans drops the empty rows, counts the boxes and
    collects the top block, whose one filling is the start state.  A
    diagram that is its block, or whose rows all end in one column, is
    answered from that state with no row searched.
    """
    # An empty row changes no counts, and the rows around it share no
    # column.  The top block, the leading rows that share the first row's
    # inner part, is not searched: each of its rows lies under the one
    # above, so its only LR filling puts r in every box of row r.  Inner
    # parts weakly decrease, and no empty row lies between two rows of one
    # inner part, so the block is every row whose inner part is the first one's.
    top: list[int] = []  # the block's row lengths
    rows: list[tuple[int, int]] = []  # the rows below it
    size = top_a = 0
    for span in spans:
        a, b = span
        if a < b:
            size += b - a
            if a == top_a or not top:
                top_a = a
                top.append(b - a)
            else:
                rows.append(span)
    # Right ends weakly decrease too, so if the last row ends where the
    # first does, all do: the diagram is the half-turn of the straight
    # shape of its row lengths, and has its character.  Rows lengthen
    # downward, so that shape is theirs from the bottom up, then the block's.
    if rows and rows[-1][1] == top_a + top[0]:
        top = [b - a for a, b in reversed(rows)] + top
        rows = []
    k, l = box or (size, len(top) + len(rows))  # else the caps the diagram implies
    l = l if k > 0 else 0  # without a 1 no value opens
    # the search starts below the block from its one state, unless the
    # block itself breaks the box
    if top and (top[0] > k or len(top) > l):
        return CharacterSum._trusted(size, {})
    if not rows:
        return CharacterSum._trusted(size, {tuple(top): 1})
    # previous row entries kept for the next row, from column prev_a + 1
    # -> (k, running content counts) -> number of partial fillings reaching them.
    # With k leading, the lattice test cnt[v - 1] > cnt[v] caps the 1s too;
    # counts only grow, so a state the caps refuse could never fit the box.
    # Row t keeps its t's over the columns it shares with the next row.
    keep = max(0, min(top[-1], rows[0][1] - top_a))
    groups: dict[tuple, dict[tuple, int]] = {(len(top),) * keep: {(k, *top): 1}}
    prev_a = top_a
    rows.append((0, 0))  # the last row keeps nothing
    for (a, b), (_, next_b) in pairwise(rows):
        keep = max(0, min(b, next_b) - a)
        width = b - a
        new_groups: defaultdict[tuple, dict[tuple, int]] = defaultdict(dict)
        # entries[i + 1:] are placed; v is the next value to try at position
        # i.  Entries run right to left, the order the counts live in, and
        # weakly decrease leftward: entries[i + 1] caps position i, and the
        # sentinel entries[width] lets only the rightmost open a value, n + 1 <= l.
        # Counts are positive, so only undoing a new value leaves a zero, at the end.
        entries = [0] * (width + 1)
        cols = range(a - prev_a, b - prev_a)  # this row's columns, indexed into prev
        # each group, and each state in it, is popped as it is read: the row
        # read shrinks while the next one grows, so the two are never held whole
        while groups:
            prev, group = groups.popitem()
            lows = [prev[j] + 1 if 0 <= j < len(prev) else 1 for j in cols]
            while group:
                counts, mult = group.popitem()
                cnt = list(counts)
                n = len(cnt) - 1
                entries[width] = n + 1 if n < l else l
                i, v = width - 1, lows[-1]
                while True:
                    cap = entries[i + 1]
                    while v <= n and v <= cap and cnt[v - 1] <= cnt[v]:
                        v += 1
                    if v <= cap:
                        if v > n:
                            cnt.append(1)
                            n += 1
                        else:
                            cnt[v] += 1
                        entries[i] = v
                        if i:
                            i -= 1
                            v = lows[i]
                            continue
                        target = new_groups[tuple(entries[:keep])]
                        key = tuple(cnt)
                        target[key] = target.get(key, 0) + mult
                    else:
                        i += 1
                        if i == width:
                            break
                        v = entries[i]
                    cnt[v] -= 1
                    if not cnt[v]:
                        cnt.pop()
                        n -= 1
                    v += 1
        groups, prev_a = new_groups, a
    # the last row keeps nothing, so at most one group is left.  Its counts
    # are partitions: lattice counts are positive and weakly decreasing.
    # Popping each state as k is cut off frees its count tuple at once, so
    # the final row and the answer are never both held whole.
    final = groups.pop((), {})
    terms = {}
    while final:
        counts, mult = final.popitem()
        terms[counts[1:]] = mult
    return CharacterSum._trusted(size, terms)


def outer_product(alpha: Partition, beta: Partition) -> CharacterSum:
    """Decomposition of the induced product character of two irreducibles.

    The product is the skew character of the two diagrams side by side,
    which share no row or column.  Their row spans go to the search with
    the heavier factor on top, where it is the forced start state.
    """
    return _search(_product_spans(alpha, beta), None)


def schubert_product(alpha: Partition, beta: Partition, k: int, l: int) -> CharacterSum:
    """Outer product inside the k x l rectangle; the heavier factor is the start state."""
    if k < 1 or l < 1:
        raise ValueError("rectangle sides must be positive")
    return _search(_product_spans(alpha, beta), (k, l))


def _product_spans(alpha: Partition, beta: Partition) -> list[tuple[int, int]]:
    # the rows of embed_disjoint(heavier, lighter), with no diagram made:
    # the heavier factor northeast, the lighter one below and to its left
    top, low = (alpha.parts, beta.parts) if alpha.weight >= beta.weight else (beta.parts, alpha.parts)
    w = low[0] if low else 0
    return [(w, w + x) for x in top] + [(0, x) for x in low]
