"""Shared test utilities: constructors, random instances, independent checkers."""

from __future__ import annotations

import random
import string

from skewchar import (
    CharacterSum,
    EqualityReport,
    LevelRecord,
    Partition,
    RibbonLabeling,
    RibbonProfile,
    SkewDiagram,
    conjugate,
    durfee,
    normalize,
    nw_labeling,
    strip_nw_ribbons,
)
from skewchar.equality import CONDITIONS
from skewchar.skew import box_components, skew_from_boxes


def P(*parts: int) -> Partition:
    return Partition(parts)


def SD(outer, inner=()) -> SkewDiagram:
    return SkewDiagram(Partition(outer), Partition(inner))


def boxes(a: SkewDiagram) -> list[tuple[int, int]]:
    """The (row, col) boxes, row by row; the inverse of `skew_from_boxes`."""
    return [(i, j) for i, (lo, hi) in enumerate(a.spans, 1) for j in range(lo + 1, hi + 1)]


def add_partitions(mu: Partition, nu: Partition) -> Partition:
    """Componentwise sum, missing parts read as 0."""
    return Partition(mu[i] + nu[i] for i in range(max(mu.length, nu.length)))


def frobenius_coordinates(p: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Arm and leg lengths of the diagonal boxes."""
    conj = conjugate(p)
    d = durfee(p)
    arms = tuple(p[i] - i - 1 for i in range(d))
    legs = tuple(conj[i] - i - 1 for i in range(d))
    return arms, legs


def lex_compare(mu: Partition, nu: Partition) -> int:
    """-1, 0 or 1 as mu is lexicographically smaller, equal or greater."""
    if mu.parts == nu.parts:
        return 0
    return -1 if mu.parts < nu.parts else 1


def partitions_of_weight_in_box(n: int, k: int, l: int):
    """All partitions of n with first part at most k and at most l parts."""

    def rec(n, maxpart, rows):
        if n == 0:
            yield ()
            return
        if rows == 0:
            return
        for p in range(min(n, maxpart), 0, -1):
            if p * rows < n:
                break
            for rest in rec(n - p, p, rows - 1):
                yield (p,) + rest

    for parts in rec(n, k, l):
        yield Partition(parts)


def skew_diagrams(n: int):
    """Every normalized skew diagram of n boxes whose outer partition fits in the n x n box, once each.

    Built from row spans (a, b], the bottom row first: it starts in column
    1, and each row above starts and ends weakly right of the one below.
    An empty row is pinned at the end of the row below it, where
    `normalize` puts it, and the top row is never empty.  The n x n box
    bounds the gaps of a disconnected diagram.
    """

    def grow(spans, left):
        if not left:
            yield spans
            return
        if len(spans) == n:
            return
        lo, hi = spans[-1]
        yield from grow(spans + [(hi, hi)], left)
        for b in range(hi, n + 1):
            for a in range(max(lo, b - left), b):
                yield from grow(spans + [(a, b)], left - (b - a))

    if not n:
        yield SD((), ())
    for width in range(1, n + 1):
        for spans in grow([(0, width)], n - width):
            yield SD([b for _, b in reversed(spans)], [a for a, _ in reversed(spans)])


def is_lattice_word(word) -> bool:
    """Every prefix holds at least as many i as i+1, for every i >= 1."""
    counts: list[int] = []
    for v in word:
        if v < 1:
            raise ValueError("lattice words consist of positive integers")
        if v > len(counts) + 1:
            return False
        if v == len(counts) + 1:
            counts.append(0)
        if v > 1 and counts[v - 2] <= counts[v - 1]:
            return False
        counts[v - 1] += 1
    return True


def random_partition(rng: random.Random, max_part: int, max_len: int) -> Partition:
    if max_part < 1 or max_len < 1:
        return Partition()
    n = rng.randint(0, max_len)
    return Partition(sorted((rng.randint(1, max_part) for _ in range(n)), reverse=True))


def random_subpartition(rng: random.Random, lam: Partition) -> Partition:
    parts, cap = [], lam[0]
    for i in range(lam.length):
        cap = min(cap, lam[i])
        cap = rng.randint(0, cap)
        parts.append(cap)
    return Partition(parts)


def random_skew(
    rng: random.Random, max_rows: int = 8, max_cols: int = 8, max_boxes: int = 14
) -> SkewDiagram:
    while True:
        rows = rng.randint(1, max_rows)
        outer = Partition(sorted((rng.randint(1, max_cols) for _ in range(rows)), reverse=True))
        diagram = SkewDiagram(outer, random_subpartition(rng, outer))
        if 1 <= diagram.size <= max_boxes:
            return diagram


def reverse_row_word_boxes(shape: SkewDiagram) -> list[tuple[int, int]]:
    """The boxes in reverse-row-word order: rows top to bottom, each right to left."""
    return sorted(boxes(shape), key=lambda box: (box[0], -box[1]))


def is_semistandard(shape: SkewDiagram, word) -> bool:
    """Row-weak, column-strict check done on the word placed back on the shape."""
    boxes = reverse_row_word_boxes(shape)
    assert len(word) == len(boxes)
    entries = dict(zip(boxes, word))
    for (r, c), v in entries.items():
        right = entries.get((r, c + 1))
        if right is not None and v > right:
            return False
        below = entries.get((r + 1, c))
        if below is not None and v >= below:
            return False
    return True


def is_lr_tableau(shape: SkewDiagram, word) -> bool:
    return is_semistandard(shape, word) and is_lattice_word(word)


def _row_fillings(a, b, prev, prev_a, counts):
    """Lattice fillings of one row over columns (a, b] as (entries, counts) pairs.

    `prev` holds the previous row's entries starting at column prev_a + 1;
    columns outside it carry no constraint.  Entries are produced right to
    left, smallest value first, on an explicit stack.
    """
    width = b - a
    if not width:
        return [((), tuple(counts))]
    lows = [prev[k] + 1 if 0 <= k < len(prev) else 1 for k in range(a - prev_a, b - prev_a)]
    entries = [0] * width
    cnt = list(counts)
    out = []
    i, v = width - 1, lows[-1]
    while True:
        n = len(cnt)
        cap = entries[i + 1] if i + 1 < width else n + 1
        while 1 < v <= n and v <= cap and cnt[v - 2] <= cnt[v - 1]:
            v += 1
        if v <= cap:
            if v > n:
                cnt.append(1)
            else:
                cnt[v - 1] += 1
            entries[i] = v
            if i:
                i -= 1
                v = lows[i]
                continue
            out.append((tuple(entries), tuple(cnt)))
        else:
            i += 1
            if i == width:
                return out
            v = entries[i]
        cnt[v - 1] -= 1
        if not cnt[v - 1]:
            cnt.pop()
        v += 1


def row_by_row_decompose(a: SkewDiagram) -> CharacterSum:
    """Reference for `decompose_skew`: its former one-call-per-state row search.

    States are (kept entries, counts) pairs, each row's fillings are listed
    per state, and the answer goes through the validating constructors.
    """
    spans = a.spans
    states: dict[tuple, int] = {((), ()): 1}
    prev_a = 0
    for idx, (lo, hi) in enumerate(spans):
        next_hi = spans[idx + 1][1] if idx + 1 < len(spans) else 0
        keep = max(0, min(hi, next_hi) - lo)
        new_states: dict[tuple, int] = {}
        for (prev, counts), mult in states.items():
            for row_entries, new_counts in _row_fillings(lo, hi, prev, prev_a, counts):
                key = (row_entries[:keep], new_counts)
                new_states[key] = new_states.get(key, 0) + mult
        states, prev_a = new_states, lo
    terms: dict[Partition, int] = {}
    for (_, counts), mult in states.items():
        nu = Partition(counts)
        terms[nu] = terms.get(nu, 0) + mult
    return CharacterSum(a.size, terms)


def recursive_lr_fillings(shape: SkewDiagram, content: Partition):
    """Reference for `enumerate_lr_fillings`: its former one-frame-per-box search.

    Yields each filling as the list of its (box, entry) pairs in the order
    the boxes were filled, so a test can pin both the fillings and their order.
    """
    order = []
    for i, (a, b) in enumerate(shape.spans, 1):
        order.extend((i, j) for j in range(b, a, -1))
    counts = [0] * content.length
    entries: dict[tuple[int, int], int] = {}

    def inside(i, j):
        if not 1 <= i <= shape.num_rows:
            return False
        a, b = shape.spans[i - 1]
        return a < j <= b

    def fill(idx):
        if idx == len(order):
            yield list(entries.items())
            return
        i, j = order[idx]
        lo = entries[(i - 1, j)] + 1 if inside(i - 1, j) else 1
        hi = entries[(i, j + 1)] if inside(i, j + 1) else content.length
        for v in range(lo, hi + 1):
            c = counts[v - 1]
            if c >= content[v - 1] or (v > 1 and counts[v - 2] <= c):
                continue
            counts[v - 1] = c + 1
            entries[(i, j)] = v
            yield from fill(idx + 1)
            counts[v - 1] = c
            del entries[(i, j)]

    yield from fill(0)


def flood_fill_profiles(a: SkewDiagram):
    """Reference for `nw_labeling`: its former per-layer code.

    Keeps every layer as a box list, counts its ribbons by flood fill and
    its rows and columns with sets.  Returns (labels, layer sizes, profiles).
    """
    labels: dict[tuple[int, int], int] = {}
    layers: list[list[tuple[int, int]]] = []
    for box in boxes(a):
        r, c = box
        v = labels.get((r - 1, c - 1), 0) + 1
        labels[box] = v
        if v > len(layers):
            layers.append([])
        layers[v - 1].append(box)
    profiles = []
    for level, layer in enumerate(layers, 1):
        k = len(box_components(layer))
        ncols = len({c for _, c in layer})
        nrows = len({r for r, _ in layer})
        profiles.append(RibbonProfile(level, len(layer), k, ncols - k, nrows - k))
    return labels, [len(layer) for layer in layers], tuple(profiles)


def label_map(labeling: RibbonLabeling) -> dict[tuple[int, int], int]:
    """The labels of `labeling.rows` by box.

    Asserts one list per row of the diagram, each as long as that row.
    """
    a = labeling.diagram
    spans = a.spans
    assert [len(row) for row in labeling.rows] == [hi - lo for lo, hi in spans]
    return {
        (i, j): v
        for i, ((lo, _), row) in enumerate(zip(spans, labeling.rows), 1)
        for j, v in enumerate(row, lo + 1)
    }


def normalize_by_boxes(a: SkewDiagram) -> SkewDiagram:
    """Reference for `normalize`: the box set, translated by `skew_from_boxes`."""
    return skew_from_boxes(boxes(a))


def rotate180_by_boxes(a: SkewDiagram) -> SkewDiagram:
    """Reference for `rotate180`: the half-turned box set."""
    cells = boxes(a)
    rmax = max((r for r, _ in cells), default=0)
    cmax = max((c for _, c in cells), default=0)
    return skew_from_boxes((rmax + 1 - r, cmax + 1 - c) for r, c in cells)


def components_by_boxes(a: SkewDiagram) -> list[SkewDiagram]:
    """Reference for `components`: flood-filled box groups, topmost first."""
    return [skew_from_boxes(g) for g in sorted(box_components(boxes(a)), key=min)]


def strip_by_labels(labels: dict[tuple[int, int], int], t: int) -> SkewDiagram:
    """Reference for `strip_nw_ribbons`: the boxes labeled above t."""
    return skew_from_boxes(b for b, v in labels.items() if v > t)


LABEL_SYMBOLS = string.digits[1:] + string.ascii_lowercase + string.ascii_uppercase


def label_grid_by_labels(a: SkewDiagram, labels: dict[tuple[int, int], int]) -> str:
    """Reference for `render_labels` up to 61 layers: its former per-box code."""
    lines = []
    for i, (lo, hi) in enumerate(a.spans, 1):
        symbols = (LABEL_SYMBOLS[labels[(i, j)] - 1] for j in range(lo + 1, hi + 1))
        lines.append(":" * lo + "".join(symbols))
    depth = max(labels.values(), default=0)
    lines.extend(f"{LABEL_SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1))
    return "".join(line + "\n" for line in lines)


def per_level_conditions(a: SkewDiagram, b: SkewDiagram) -> EqualityReport:
    """Reference structural test: strip one ribbon per level and relabel.

    Independent of the suffix identity used by necessary_conditions.
    """
    ca, cb = normalize(a), normalize(b)
    top = min(len(nw_labeling(ca).profiles), len(nw_labeling(cb).profiles))
    levels = []
    failure = None
    for t in range(top + 1):
        la, lb = nw_labeling(ca), nw_labeling(cb)
        record = LevelRecord(
            level=t,
            pi_nw_equal=la.pi_nw == lb.pi_nw,
            k_equal=[p.k for p in la.profiles] == [p.k for p in lb.profiles],
            armleg_equal=[(p.arm, p.leg) for p in la.profiles]
            == [(p.arm, p.leg) for p in lb.profiles],
        )
        levels.append(record)
        flags = (record.pi_nw_equal, record.k_equal, record.armleg_equal)
        if failure is None:
            failure = next(((t, c) for c, ok in zip(CONDITIONS, flags) if not ok), None)
        if t < top:
            ca = strip_nw_ribbons(ca, 1)
            cb = strip_nw_ribbons(cb, 1)
    return EqualityReport(
        levels=tuple(levels),
        passed=failure is None,
        fail_level=failure[0] if failure else None,
        fail_condition=failure[1] if failure else None,
    )
