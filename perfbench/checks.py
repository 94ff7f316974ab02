"""Independent checks of skewchar outputs.

Nothing here imports skewchar.  Partitions are plain tuples of parts and
skew diagrams are (outer, inner) tuple pairs.  Each check either returns
quietly or raises CheckFailed naming the first property that does not
hold.  The checks use identities the true answer must satisfy:

- Sum of m_nu * f^nu equals f^(lam/mu), with f^nu from the hook-length
  formula and f^(lam/mu) from Aitken's determinant in exact integers.
- Sum of m_nu * s_nu(1^q) equals s_(lam/mu)(1^q), with the hook-content
  formula on the left and the Jacobi-Trudi determinant on the right.
- The lexicographically largest and smallest constituents are the
  conjugate of the sorted column heights and the sorted row lengths, each
  with multiplicity 1.
- Northwest ribbon labels obey label(r, c) = label(r - 1, c - 1) + 1, and
  each layer's ribbon count, arm and leg come from a flood fill here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import zip_longest

# Symbols of `render --labels`: label v is drawn as SYMBOLS[v - 1].
SYMBOLS = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class CheckFailed(Exception):
    """An output violates a property the correct answer must have."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- partitions --------------------------------------------------------------


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0))


def durfee(p: tuple[int, ...]) -> int:
    return sum(1 for i, x in enumerate(p) if x >= i + 1)


def principal_hooks(p: tuple[int, ...]) -> tuple[int, ...]:
    c = conjugate(p)
    return tuple(p[i] + c[i] - 2 * i - 1 for i in range(durfee(p)))


def is_partition(p) -> bool:
    return (
        isinstance(p, tuple)
        and all(isinstance(x, int) and x > 0 for x in p)
        and all(p[i] >= p[i + 1] for i in range(len(p) - 1))
    )


def hook_product(p: tuple[int, ...]) -> int:
    c = conjugate(p)
    prod = 1
    for i, row in enumerate(p):
        for j in range(row):
            prod *= row - j + c[j] - i - 1
    return prod


def content_product(p: tuple[int, ...], q: int) -> int:
    prod = 1
    for i, row in enumerate(p):
        for j in range(row):
            prod *= q + j - i
    return prod


def f_straight(p: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape p, by the hook-length formula."""
    return math.factorial(sum(p)) // hook_product(p)


def s_ones_straight(p: tuple[int, ...], q: int) -> int:
    """s_p(1^q), the number of semistandard tableaux with entries up to q."""
    num, den = content_product(p, q), hook_product(p)
    expect(num % den == 0, f"hook-content quotient of {p} at q={q} is not an integer")
    return num // den


# --- determinants -------------------------------------------------------------


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by Bareiss's fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1] if n else 1


def _padded(outer, inner):
    r = len(outer)
    return list(outer), list(inner) + [0] * (r - len(inner)), r


def f_skew(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """Standard tableaux of shape outer/inner: n! det[1/(lam_i - mu_j - i + j)!] (Aitken).

    Row i is scaled by (lam_i - i + r)! to make every entry an integer.
    """
    lam, mu, r = _padded(outer, inner)
    n = sum(lam) - sum(mu)
    scale = [math.factorial(lam[i] - i + r) for i in range(r)]
    matrix = [
        [scale[i] // math.factorial(lam[i] - mu[j] - i + j) if lam[i] - mu[j] - i + j >= 0 else 0 for j in range(r)]
        for i in range(r)
    ]
    value = Fraction(math.factorial(n) * _det(matrix), math.prod(scale))
    expect(value.denominator == 1, "Aitken determinant is not an integer")
    return int(value)


def s_ones_skew(outer: tuple[int, ...], inner: tuple[int, ...], q: int) -> int:
    """s_(outer/inner)(1^q) by Jacobi-Trudi: det[h_(lam_i - mu_j - i + j)(1^q)]."""
    lam, mu, r = _padded(outer, inner)

    def h(k):
        return math.comb(q + k - 1, k) if k >= 0 else 0

    return _det([[h(lam[i] - mu[j] - i + j) for j in range(r)] for i in range(r)])


# --- skew diagrams ------------------------------------------------------------


def boxes(outer, inner) -> list[tuple[int, int]]:
    """Boxes (row, col), 1-based, in reading order."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [(i + 1, j) for i in range(len(outer)) for j in range(inner[i] + 1, outer[i] + 1)]


def row_lengths(outer, inner) -> tuple[int, ...]:
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return tuple(sorted((o - i for o, i in zip(outer, inner) if o > i), reverse=True))


def column_heights(outer, inner) -> tuple[int, ...]:
    heights: dict[int, int] = {}
    for _, c in boxes(outer, inner):
        heights[c] = heights.get(c, 0) + 1
    return tuple(sorted(heights.values(), reverse=True))


def shape_from_boxes(box_set) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(outer, inner) of a box set that is a skew shape, moved to row 1 / column 1.

    An empty row between occupied ones gets outer = inner = the outer part below it.
    """
    r0 = min(r for r, _ in box_set)
    c0 = min(c for _, c in box_set)
    rows: dict[int, list[int]] = {}
    for r, c in box_set:
        rows.setdefault(r - r0, []).append(c - c0)
    n = max(rows) + 1
    outer, inner = [0] * n, [0] * n
    for i in range(n - 1, -1, -1):
        cols = sorted(rows.get(i, ()))
        if not cols:
            outer[i] = inner[i] = outer[i + 1]
            continue
        expect(cols[-1] - cols[0] + 1 == len(cols), "row with a gap")
        inner[i], outer[i] = cols[0], cols[-1] + 1
    while inner and inner[-1] == 0:
        inner.pop()
    return tuple(outer), tuple(inner)


def skew_text(outer, inner) -> str:
    return ",".join(map(str, outer)) + "/" + ",".join(map(str, inner))


def rotate180(outer, inner):
    bs = boxes(outer, inner)
    rmax = max(r for r, _ in bs)
    cmax = max(c for _, c in bs)
    return shape_from_boxes({(rmax + 1 - r, cmax + 1 - c) for r, c in bs})


def translate(outer, inner, down: int, right: int):
    """The same box set written with `down` empty rows above it and shifted right."""
    pad = outer[0] + right
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return (
        (pad,) * down + tuple(x + right for x in outer),
        (pad,) * down + tuple(x + right for x in inner),
    )


def nw_labels(box_list) -> dict[tuple[int, int], int]:
    """Northwest ribbon index of each box: 1 + the index of its northwest neighbour."""
    labels: dict[tuple[int, int], int] = {}
    for r, c in sorted(box_list):
        labels[(r, c)] = labels.get((r - 1, c - 1), 0) + 1
    return labels


def _components(box_set) -> int:
    remaining = set(box_set)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            r, c = stack.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    stack.append(nb)
    return count


def layer_profiles(outer, inner) -> list[dict]:
    """Per northwest layer: size, ribbon count k, arm and leg, by flood fill."""
    labels = nw_labels(boxes(outer, inner))
    layers: dict[int, list[tuple[int, int]]] = {}
    for b, v in labels.items():
        layers.setdefault(v, []).append(b)
    out = []
    for v in range(1, len(layers) + 1):
        layer = layers[v]
        k = _components(layer)
        out.append(
            {
                "index": v,
                "size": len(layer),
                "k": k,
                "arm": len({c for _, c in layer}) - k,
                "leg": len({r for r, _ in layer}) - k,
            }
        )
    return out


# --- character sums -----------------------------------------------------------


def parse_sum(code: int, text: str, weight: int) -> dict[tuple[int, ...], int]:
    """Terms of a `--json` character sum, checking format, order and weights."""
    expect(code == 0, f"exit code {code}")
    data = json.loads(text)
    expect(data["weight"] == weight, f"weight {data['weight']}, expected {weight}")
    terms: dict[tuple[int, ...], int] = {}
    previous = None
    for term in data["terms"]:
        nu, mult = tuple(term["partition"]), term["mult"]
        expect(is_partition(nu) and sum(nu) == weight, f"bad constituent {nu}")
        expect(isinstance(mult, int) and mult > 0, f"bad multiplicity {mult} of {nu}")
        expect(previous is None or nu < previous, "terms not strictly lex descending")
        terms[nu] = mult
        previous = nu
    return terms


def _hook_sums(terms, qs) -> tuple[int, list[int]]:
    """Sum of m * f^nu and, for each q, sum of m * s_nu(1^q)."""
    f_total = 0
    s_totals = [0] * len(qs)
    for nu, mult in terms.items():
        hooks = hook_product(nu)
        f_total += mult * (math.factorial(sum(nu)) // hooks)
        for i, q in enumerate(qs):
            num = content_product(nu, q)
            expect(num % hooks == 0, f"hook-content quotient of {nu} is not an integer")
            s_totals[i] += mult * (num // hooks)
    return f_total, s_totals


def check_decomposition(outer, inner, terms: dict[tuple[int, ...], int]) -> None:
    """The expansion of the skew character outer/inner into irreducibles."""
    rows = row_lengths(outer, inner)
    cols = column_heights(outer, inner)
    expect(bool(terms), "empty decomposition")
    qs = (len(rows), len(cols))
    f_total, s_totals = _hook_sums(terms, qs)
    expect(f_total == f_skew(outer, inner), "sum of m * f^nu differs from f^(lam/mu)")
    for q, total in zip(qs, s_totals):
        expect(total == s_ones_skew(outer, inner, q), f"sum of m * s_nu(1^{q}) differs from s_(lam/mu)(1^{q})")
    top, bottom = max(terms), min(terms)
    expect(top == conjugate(cols), f"lex-largest term {top}, expected {conjugate(cols)}")
    expect(bottom == rows, f"lex-smallest term {bottom}, expected {rows}")
    expect(terms[top] == 1 and terms[bottom] == 1, "extreme constituents must have multiplicity 1")


def check_product(alpha, beta, terms: dict[tuple[int, ...], int]) -> None:
    """The expansion of the product of the irreducibles alpha and beta."""
    a, b = sum(alpha), sum(beta)
    expect(bool(terms), "empty product")
    qs = (max(len(alpha), len(beta)), len(alpha) + len(beta))
    f_total, s_totals = _hook_sums(terms, qs)
    expect(f_total == math.comb(a + b, a) * f_straight(alpha) * f_straight(beta), "sum of m * f^nu differs from C(n, |alpha|) f^alpha f^beta")
    for q, total in zip(qs, s_totals):
        expect(total == s_ones_straight(alpha, q) * s_ones_straight(beta, q), f"sum of m * s_nu(1^{q}) differs from s_alpha(1^{q}) s_beta(1^{q})")
    top = tuple(x + y for x, y in zip_longest(alpha, beta, fillvalue=0))
    bottom = tuple(sorted(alpha + beta, reverse=True))
    expect(max(terms) == top and terms[top] == 1, f"lex-largest term must be {top} once")
    expect(min(terms) == bottom and terms[bottom] == 1, f"lex-smallest term must be {bottom} once")


def check_schubert(product_terms, k: int, l: int, terms) -> None:
    """The product restricted to the k x l box."""
    expected = {nu: m for nu, m in product_terms.items() if nu[0] <= k and len(nu) <= l}
    expect(terms == expected, f"terms differ from the product's terms inside ({k}^{l})")


def check_durfee_witnesses(data: dict, weight: int, product_terms=None) -> None:
    """Durfee report: witnesses reach the reported size; with the product, exhaustively."""
    d = data["max_durfee"]
    wits = {tuple(w["nu_inverse"]): w["mult"] for w in data["witnesses"]}
    expect(bool(wits), "no Durfee witness")
    for nu, mult in wits.items():
        expect(is_partition(nu) and sum(nu) == weight, f"bad witness {nu}")
        expect(durfee(nu) == d, f"witness {nu} has Durfee size {durfee(nu)}, reported {d}")
        expect(isinstance(mult, int) and mult > 0, f"bad multiplicity {mult} of {nu}")
    if product_terms is not None:
        expect(max(durfee(nu) for nu in product_terms) == d, "a product term exceeds the reported Durfee size")
        expected = {nu: m for nu, m in product_terms.items() if durfee(nu) == d}
        expect(wits == expected, "exhaustive witnesses differ from the product's terms of maximal Durfee size")


# --- ribbon structure -----------------------------------------------------------


def check_label_grid(outer, inner, lines: list[str]) -> None:
    """A `render --labels` grid: box positions, the label recurrence and the legend."""
    n_rows = len(outer)
    inner_p = tuple(inner) + (0,) * (n_rows - len(inner))
    box_set = set(boxes(outer, inner))
    labels: dict[tuple[int, int], int] = {}
    for i, line in enumerate(lines[:n_rows]):
        expect(line[: inner_p[i]] == ":" * inner_p[i], f"row {i + 1}: inner cells not drawn as ':'")
        for j in range(inner_p[i], len(line)):
            expect(line[j] in SYMBOLS, f"row {i + 1}: bad symbol {line[j]!r}")
            labels[(i + 1, j + 1)] = SYMBOLS.index(line[j]) + 1
    expect(set(labels) == box_set, "labeled boxes differ from the diagram")
    for (r, c), v in labels.items():
        expect(v == labels.get((r - 1, c - 1), 0) + 1, f"label recurrence broken at {(r, c)}")
    depth = max(labels.values())
    legend = [f"{SYMBOLS[v - 1]} = {v}" for v in range(10, depth + 1)]
    expect(lines[n_rows:] == legend, "legend lines differ")


def check_ribbons(outer, inner, data: dict) -> None:
    profiles = layer_profiles(outer, inner)
    expect(data["pi_nw"] == [p["size"] for p in profiles], "pi_nw differs from the layer sizes")
    expect(data["profiles"] == profiles, "layer profiles (k, arm, leg) differ")
    check_label_grid(outer, inner, data["grid"])


def check_maxhook(outer, inner, data: dict) -> None:
    """Every witness has principal hook lengths pi_nw; counts follow the layer data."""
    profiles = layer_profiles(outer, inner)
    pi = tuple(p["size"] for p in profiles)
    expect(tuple(data["hl"]) == pi, "hl differs from pi_nw")
    expect(data["min_durfee"] == len(pi), "min Durfee size differs from the number of layers")
    ks = [p["k"] for p in profiles]
    expect(data["distinct"] == math.prod(ks) == len(data["witnesses"]), "witness count differs from the product of ribbon counts")
    expect(sum(w["mult"] for w in data["witnesses"]) == 2 ** sum(k - 1 for k in ks), "witness multiplicities do not sum to prod 2^(k-1)")
    for w in data["witnesses"]:
        nu = tuple(w["nu"])
        expect(is_partition(nu) and principal_hooks(nu) == pi, f"witness {nu} does not have principal hooks pi_nw")


def check_eqcheck(outer, inner, data: dict) -> None:
    """Equal characters: every level compares equal and the verdict is pass."""
    depth = len(layer_profiles(outer, inner))
    expect(len(data["levels"]) == depth + 1, f"{len(data['levels'])} levels, expected {depth + 1}")
    for rec in data["levels"]:
        expect(rec["pi_nw_equal"] and rec["k_equal"] and rec["armleg_equal"], f"level {rec['level']} differs")
    expect(data["structural_verdict"] == "pass" and data["full_check"] is None, "verdict is not a structural pass")
