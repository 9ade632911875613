"""Seeded benchmark inputs and the oracles that know their right answers.

Everything here is computed with ``fractions.Fraction`` and plain ints, never
through ``mipcert``: a bug in the package's arithmetic must not make the
generator and the checker agree on a wrong row. Files are written in the
certificate grammar, one row per line, which is also what
``write_certificate`` produces, so :func:`mutate` can work on the
certificates the solver emits as well as on generated ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Rows in the criterion-9 chain (one ``lin`` row per derivation).
CHAIN_ROWS = 10_000
#: Split-tree depth: 4,094 ``asm`` and 2,048 ``lin`` rows plus the seeded
#: number of ``uns`` rows.
TREE_DEPTH = 11
#: Depth and fixed weight seed of the small split-tree problem the tree
#: workload hands to ``solve``; its cost depends on the weights, so they do
#: not follow the workload seed.
TREE_SOLVE_DEPTH = 5
TREE_SOLVE_SEED = 6
#: The bnb problem set: knapsack instances (generator seed, items), parity
#: bounds, and how many criterion-5 draws.
KNAPSACKS = ((1203, 10),)
PARITY_HIS = (10,)
CRIT5_SLICE = 4
CRIT5_SEED = 574218


def _fmt(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _sparse(entries: list[tuple[int, Fraction | int]]) -> str:
    parts = [str(len(entries))]
    for index, value in entries:
        parts += [str(index), _fmt(value)]
    return " ".join(parts)


def _problem_lines(
    names: list[str],
    integers: list[int],
    sense: str,
    objective: list[tuple[int, Fraction | int]],
    rows: list[tuple[str, str, Fraction | int, list[tuple[int, Fraction | int]]]],
) -> list[str]:
    lines = ["VER 1", f"VAR {len(names)}", " ".join(names), f"INT {len(integers)}"]
    if integers:
        lines.append(" ".join(map(str, integers)))
    lines += [f"OBJ {sense}", _sparse(objective), f"CON {len(rows)}"]
    lines += [f"{name} {code} {_fmt(rhs)} {_sparse(lhs)}" for name, code, rhs, lhs in rows]
    return lines


@dataclass
class Problem:
    """A problem file's text and its known answer.

    ``optimum`` is the optimal value, or None when the problem is infeasible.
    """

    name: str
    text: str
    optimum: int | None

    def expected_stdout(self) -> str:
        """What ``mipcert solve`` must print first."""
        if self.optimum is None:
            return "infeasible"
        return f"optimal: {self.optimum}"

    def verdict(self) -> str:
        """What ``mipcert check`` must print for the solver's certificate."""
        if self.optimum is None:
            return "verified: infeasible"
        return f"verified: range [{self.optimum}, {self.optimum}]"


@dataclass
class CertInput:
    """A generated certificate with its expected verdict and size."""

    name: str
    text: str
    verdict: str
    derivations: int
    info: dict = field(default_factory=dict)


# --- chain -----------------------------------------------------------------

_CHAIN_HEAD = ["VER 1", "VAR 1", "x", "INT 0", "OBJ min", "1 0 1", "CON 1", "C1 G 0 1 0 1"]


def chain_certificate(rows: int) -> CertInput:
    """The criterion-9 chain: ``D_k: x >= 0`` from ``D_{k-1}`` with multiplier 1."""
    lines = _CHAIN_HEAD + ["RTP range 0 inf", "SOL 0", f"DER {rows}"]
    lines += [f"D{k} G 0 1 0 1 {{ lin 1 {k - 1} 1 }} -1" for k in range(1, rows + 1)]
    return CertInput("chain", "\n".join(lines) + "\n", "verified: range [0, inf]", rows)


def chain_problem() -> Problem:
    """The chain's own problem, ``min x`` over ``x >= 0``: optimum 0 at the root."""
    return Problem("chain", "\n".join(_CHAIN_HEAD) + "\n", 0)


# --- split tree ------------------------------------------------------------


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def tree_weights(rng: random.Random, depth: int) -> tuple[list[Fraction], Fraction]:
    """Mixed-sign rational weights and a target no 0/1 point meets.

    The denominators are the first ``depth`` primes in seeded order and every
    weight lies between 10 and 12 in magnitude, so the size of the split tree
    and of its coefficients barely depend on the seed.
    """
    weights = []
    for prime in rng.sample(_PRIMES[:depth], depth):
        numerator = rng.randint(10 * prime + 1, 12 * prime - 1)
        numerator += numerator % prime == 0
        weights.append(rng.choice((-1, 1)) * Fraction(numerator, prime))
    return weights, sum(weights) / 2 + Fraction(1, 7919)


def _tree_rows(weights: list[Fraction], target: Fraction):
    """Original rows: ``E: w.x = T`` then ``lo_j: x_j >= 0``, ``hi_j: x_j <= 1``."""
    rows = [("E", "E", target, [(j, w) for j, w in enumerate(weights)])]
    for j in range(len(weights)):
        rows.append((f"lo{j}", "G", 0, [(j, 1)]))
        rows.append((f"hi{j}", "L", 1, [(j, 1)]))
    return rows


class _SplitTree:
    """Depth-first refutation of ``w.x = T`` over 0/1 points.

    Every path fixes all variables, ``x_k <= 0`` before ``x_k >= 1``. A leaf
    with residual ``g = T - w.v`` (never 0) is refuted by the row ``0 >= 1``
    combining ``E`` with multiplier ``1/g`` and, for every variable, the bound
    row that caps ``w_j x_j`` on the side ``g`` points to, with multiplier
    ``-w_j/g``: the branch assumption when it is that bound, else
    ``lo_j``/``hi_j``. A node unsplits its two child rows when both depend
    on their own assumptions and otherwise adopts the child row that does
    not, as the solver does. Both children are always explored, so an
    adopted node leaves its sibling subtree dead for ``ttn --prune``.
    """

    def __init__(self, weights: list[Fraction], target: Fraction) -> None:
        self.w = weights
        self.target = target
        self.num_original = 1 + 2 * len(weights)
        self.lines: list[str] = []
        self.kinds = {"asm": 0, "lin": 0, "uns": 0}

    def _push(self, kind: str, line: str) -> int:
        self.kinds[kind] += 1
        self.lines.append(line)
        return self.num_original + len(self.lines) - 1

    def _leaf(self, gap: Fraction, fixed: list[tuple[int, int]]):
        assert gap != 0, "split-tree leaf with a zero gap"
        terms: dict[int, Fraction] = {0: 1 / gap}
        used: set[int] = set()
        for j, (w, (value, asm)) in enumerate(zip(self.w, fixed)):
            want_upper = (w > 0) == (gap > 0)
            if (value == 0) == want_upper:
                row = asm
                used.add(asm)
            else:
                row = 2 + 2 * j if want_upper else 1 + 2 * j
            terms[row] = -w / gap
        self._check_absurd(terms, fixed)
        ordered = sorted(terms.items())
        body = " ".join(f"{i} {_fmt(m)}" for i, m in ordered)
        row = f"L{len(self.lines)} G 1 0 {{ lin {len(ordered)} {body} }} -1"
        return self._push("lin", row), frozenset(used)

    def _check_absurd(self, terms: dict[int, Fraction], fixed) -> None:
        """Recompute the leaf combination row by row: it must read ``0 >= 1``."""
        lhs: dict[int, Fraction] = {}
        rhs = Fraction(0)
        asm_rows = {asm: (j, value) for j, (value, asm) in enumerate(fixed)}
        for row, mult in terms.items():
            if row == 0:
                coefs, bound = list(enumerate(self.w)), self.target
            elif row in asm_rows:
                j, value = asm_rows[row]
                coefs, bound = [(j, 1)], value
                assert (mult < 0) == (value == 0), "assumption multiplier has the wrong sign"
            else:
                j, is_hi = divmod(row - 1, 2)
                coefs, bound = [(j, 1)], is_hi
                assert (mult < 0) == bool(is_hi), "bound multiplier has the wrong sign"
            for j, c in coefs:
                lhs[j] = lhs.get(j, 0) + mult * c
            rhs += mult * bound
        assert all(v == 0 for v in lhs.values()) and rhs == 1, "leaf row is not 0 >= 1"

    def node(self, k: int, residual: Fraction, fixed: list[tuple[int, int]]):
        if k == len(self.w):
            return self._leaf(residual, fixed)
        down_asm = self._push("asm", f"A{len(self.lines)} L 0 1 {k} 1 {{ asm }} -1")
        down, down_set = self.node(k + 1, residual, fixed + [(0, down_asm)])
        up_asm = self._push("asm", f"A{len(self.lines)} G 1 1 {k} 1 {{ asm }} -1")
        up, up_set = self.node(k + 1, residual - self.w[k], fixed + [(1, up_asm)])
        if down_asm not in down_set:
            return down, down_set
        if up_asm not in up_set:
            return up, up_set
        row = f"U{len(self.lines)} G 1 0 {{ uns {down} {down_asm} {up} {up_asm} }} -1"
        return self._push("uns", row), (down_set | up_set) - {down_asm, up_asm}


def tree_certificate(seed: int, depth: int = TREE_DEPTH) -> CertInput:
    """A split-tree infeasibility certificate over seeded weights."""
    weights, target = tree_weights(random.Random(seed), depth)
    tree = _SplitTree(weights, target)
    _, root_set = tree.node(0, target, [])
    assert not root_set
    names = [f"x{j}" for j in range(depth)]
    head = _problem_lines(names, list(range(depth)), "min", [], _tree_rows(weights, target))
    lines = head + ["RTP infeas", "SOL 0", f"DER {len(tree.lines)}"] + tree.lines
    return CertInput("tree", "\n".join(lines) + "\n", "verified: infeasible", len(tree.lines), tree.kinds)


def tree_problem(seed: int = TREE_SOLVE_SEED, depth: int = TREE_SOLVE_DEPTH) -> Problem:
    """A small split-tree problem for ``solve``; infeasible by enumeration."""
    weights, target = tree_weights(random.Random(seed), depth)
    assert all(
        sum(w * v for w, v in zip(weights, point)) != target
        for point in itertools.product((0, 1), repeat=depth)
    )
    names = [f"x{j}" for j in range(depth)]
    lines = _problem_lines(names, list(range(depth)), "min", [], _tree_rows(weights, target))
    return Problem("tree", "\n".join(lines) + "\n", None)


# --- bnb problem set -------------------------------------------------------


def knapsack_optimum(weights: list[int], values: list[int], capacity: int) -> int:
    """0/1 knapsack optimum by dynamic programming over the capacity."""
    best = [0] * (capacity + 1)
    for w, v in zip(weights, values):
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + v)
    return best[capacity]


def knapsack_problem(seed: int, items: int) -> Problem:
    """``max v.x`` subject to ``w.x <= capacity`` over 0/1 items."""
    rng = random.Random(seed)
    weights = [rng.randint(10, 60) for _ in range(items)]
    values = [rng.randint(10, 60) for _ in range(items)]
    capacity = sum(weights) // 2
    rows = [("cap", "L", capacity, list(enumerate(weights)))]
    for j in range(items):
        rows += [(f"lo{j}", "G", 0, [(j, 1)]), (f"hi{j}", "L", 1, [(j, 1)])]
    names = [f"x{j}" for j in range(items)]
    lines = _problem_lines(names, list(range(items)), "max", list(enumerate(values)), rows)
    return Problem(
        f"knapsack{items}-{seed}", "\n".join(lines) + "\n",
        knapsack_optimum(weights, values, capacity),
    )


def parity_problem(hi: int) -> Problem:
    """``min x`` subject to ``2x - 2y = 1``, ``y >= 0``, ``x <= hi``, all integer."""
    rows = [("par", "E", 1, [(0, 2), (1, -2)]), ("ypos", "G", 0, [(1, 1)]), ("xcap", "L", hi, [(0, 1)])]
    lines = _problem_lines(["x", "y"], [0, 1], "min", [(0, 1)], rows)
    return Problem(f"parity{hi}", "\n".join(lines) + "\n", None)


def crit5_problem(rng: random.Random, name: str) -> Problem:
    """One draw of the acceptance suite's criterion-5 generator, with its
    optimum found by :func:`enumerate_optimum`."""
    n = rng.randint(1, 6)
    boxes, rows = [], []
    for j in range(n):
        width = rng.randint(0, 3)
        low = rng.randint(-10, 10 - width)
        boxes.append((low, low + width))
        rows += [(f"lo{j}", "G", low, [(j, 1)]), (f"hi{j}", "L", low + width, [(j, 1)])]
    for r in range(rng.randint(1, 8)):
        coefs = [(j, c) for j, c in enumerate(rng.randint(-10, 10) for _ in range(n)) if c]
        code = rng.choice("GGLLE")
        rows.append((f"r{r}", code, rng.randint(-10, 10), coefs))
    objective = [(j, c) for j, c in enumerate(rng.randint(-10, 10) for _ in range(n)) if c]
    sense = rng.choice(("min", "max"))
    names = [f"x{j}" for j in range(n)]
    lines = _problem_lines(names, list(range(n)), sense, objective, rows)
    return Problem(name, "\n".join(lines) + "\n", enumerate_optimum(boxes, rows, objective, sense))


def enumerate_optimum(boxes, rows, objective, sense: str) -> int | None:
    """Optimum over every integer point of the boxes, or None if none is feasible.

    ``rows`` are (name, G|L|E, rhs, sparse lhs) with integer data.
    """

    def holds(code: str, activity: int, rhs: int) -> bool:
        return activity >= rhs if code == "G" else activity <= rhs if code == "L" else activity == rhs

    best = None
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes)):
        if all(holds(code, sum(c * point[j] for j, c in lhs), rhs) for _, code, rhs, lhs in rows):
            value = sum(c * point[j] for j, c in objective)
            if best is None or (value < best if sense == "min" else value > best):
                best = value
    return best


def bnb_problems() -> list[Problem]:
    """The knapsack and parity problems and the first ``CRIT5_SLICE`` draws of
    the criterion-5 generator. They are fixed: their solve and enumeration
    costs vary too much from draw to draw to follow the workload seed."""
    problems = [knapsack_problem(s, items) for s, items in KNAPSACKS]
    problems += [parity_problem(hi) for hi in PARITY_HIS]
    rng = random.Random(CRIT5_SEED)
    problems += [crit5_problem(rng, f"crit5-{draw}") for draw in range(CRIT5_SLICE)]
    return problems


# --- reading certificate text ------------------------------------------------


def _section(lines: list[str], keyword: str) -> int:
    return next(i for i, line in enumerate(lines) if line.split()[:1] == [keyword])


def _parse_rows(text: str) -> tuple[list[list[str]], list[list[str]], int]:
    """Split a one-row-per-line certificate or problem into CON and DER rows
    (token lists). Also returns the line number of the ``DER`` header.
    """
    lines = text.splitlines()
    con_at = _section(lines, "CON")
    cons = [lines[con_at + 1 + i].split() for i in range(int(lines[con_at].split()[1]))]
    if not any(line.startswith("DER ") for line in lines):  # a problem file
        return cons, [], len(lines)
    der_at = _section(lines, "DER")
    ders = [lines[der_at + 1 + i].split() for i in range(int(lines[der_at].split()[1]))]
    return cons, ders, der_at


def _lhs(tokens: list[str]) -> dict[int, Fraction]:
    count = int(tokens[3])
    return {int(tokens[4 + 2 * i]): Fraction(tokens[5 + 2 * i]) for i in range(count)}


def _objective(lines: list[str]) -> dict[int, Fraction]:
    return _lhs(["", "", "", *lines[_section(lines, "OBJ") + 1].split()])


def _terms(tokens: list[str]) -> list[tuple[int, Fraction]] | None:
    """The combination terms of a ``lin``/``rnd`` row, else None."""
    brace = tokens.index("{")
    if tokens[brace + 1] not in ("lin", "rnd"):
        return None
    count = int(tokens[brace + 2])
    body = tokens[brace + 3 : brace + 3 + 2 * count]
    return [(int(body[2 * i]), Fraction(body[2 * i + 1])) for i in range(count)]


def _absurd(tokens: list[str]) -> bool:
    code, rhs = tokens[1], Fraction(tokens[2])
    return not _lhs(tokens) and (rhs > 0 if code == "G" else rhs < 0 if code == "L" else rhs != 0)


# --- must-reject mutants -----------------------------------------------------


def _mutations(rows: list[list[str]], tokens: list[str]) -> list[tuple[int, str]]:
    """Edits that provably break one derivation.

    A ``lin``/``rnd`` multiplier is doubled where that leaves a nonzero
    combined left-hand side different from the stated one (an empty one
    could be an absurdity, which proves anything). An ``uns`` row's
    right-hand side is moved one past its strongest non-absurd branch row,
    which then no longer dominates it. Returns (token position, new token).
    """
    brace = tokens.index("{")
    if tokens[brace + 1] == "uns":
        branches = [rows[int(tokens[brace + i])] for i in (2, 4)]
        bounds = [Fraction(b[2]) for b in branches if not _absurd(b)]
        if not bounds or tokens[1] == "E":
            return []
        moved = max(bounds) + 1 if tokens[1] == "G" else min(bounds) - 1
        return [(2, _fmt(moved))]
    terms = _terms(tokens)
    if terms is None:
        return []
    stated = _lhs(tokens)
    combined: dict[int, Fraction] = {}
    for ref, mult in terms:
        for j, c in _lhs(rows[ref]).items():
            combined[j] = combined.get(j, 0) + mult * c
    edits = []
    for t, (ref, mult) in enumerate(terms):
        mutated = dict(combined)
        for j, c in _lhs(rows[ref]).items():
            mutated[j] = mutated.get(j, 0) + mult * c
        mutated = {j: v for j, v in mutated.items() if v != 0}
        if mutated and mutated != stated:
            edits.append((brace + 4 + 2 * t, _fmt(2 * mult)))
    return edits


def mutate(text: str, seed: int) -> tuple[str, int] | None:
    """Break one derivation in the last tenth of the certificate.

    The row and the edit are drawn from the seed among those
    :func:`_mutations` offers. Returns the mutated text and the combined
    index the checker must reject at, or None when no row qualifies.
    """
    cons, ders, der_at = _parse_rows(text)
    rows = cons + ders
    first = len(ders) - max(1, len(ders) // 10)
    candidates = [
        (position, edit)
        for position in range(first, len(ders))
        for edit in _mutations(rows, ders[position])
    ]
    if not candidates:
        return None
    position, (spot, token) = random.Random(seed).choice(candidates)
    tokens = list(ders[position])
    tokens[spot] = token
    lines = text.splitlines()
    lines[der_at + 1 + position] = " ".join(tokens)
    return "\n".join(lines) + "\n", len(cons) + position


# --- what ttn --prune must keep ----------------------------------------------


def _proves_goal(tokens: list[str], goal: list[str], sense: str, objective: dict) -> bool:
    if _absurd(tokens) or goal[1] == "infeas":
        return _absurd(tokens)
    code, rhs, lhs = tokens[1], Fraction(tokens[2]), _lhs(tokens)
    if sense == "min":
        return lhs == objective and code in "GE" and rhs >= Fraction(goal[2])
    return lhs == objective and code in "LE" and rhs <= Fraction(goal[3])


def expected_kept(text: str) -> int:
    """How many derivations ``ttn --prune`` keeps: those reachable from the
    assumption-free rows that prove the goal, following every reference.

    Only goals with a finite dual side (a lower bound when minimizing, an
    upper bound when maximizing) or infeasibility goals are handled; every
    benchmark certificate has one.
    """
    cons, ders, _ = _parse_rows(text)
    lines = text.splitlines()
    sense = lines[_section(lines, "OBJ")].split()[1]
    objective = _objective(lines)
    goal = lines[_section(lines, "RTP")].split()
    m = len(cons)
    refs: list[list[int]] = []
    sets: list[frozenset[int]] = []
    for position, tokens in enumerate(ders):
        brace = tokens.index("{")
        keyword = tokens[brace + 1]
        if keyword == "asm":
            refs.append([])
            sets.append(frozenset((m + position,)))
            continue
        if keyword == "uns":
            i1, a1, i2, a2 = map(int, tokens[brace + 2 : brace + 6])
            refs.append([i1, a1, i2, a2])
            union = frozenset().union(*(sets[i - m] for i in (i1, i2) if i >= m))
            sets.append(union - {a1, a2})
            continue
        refs.append([index for index, _ in _terms(tokens)])
        sets.append(frozenset().union(*(sets[i - m] for i in refs[-1] if i >= m)))
    stack = [
        m + position
        for position, tokens in enumerate(ders)
        if not sets[position] and _proves_goal(tokens, goal, sense, objective)
    ]
    kept: set[int] = set()
    while stack:
        index = stack.pop()
        if index >= m and index not in kept:
            kept.add(index)
            stack.extend(refs[index - m])
    return len(kept)


def size(text: str) -> dict[str, int]:
    """Rows (derivations, or constraints for a problem file), bytes, and the
    largest numerator or denominator in bits among the objective, the rows'
    right-hand sides and coefficients, and the combination multipliers."""
    cons, ders, _ = _parse_rows(text)
    values = list(_objective(text.splitlines()).values())
    for tokens in cons + ders:
        values += [Fraction(tokens[2]), *_lhs(tokens).values()]
    for tokens in ders:
        values += [multiplier for _, multiplier in _terms(tokens) or ()]
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)
    return {"rows": len(ders or cons), "bytes": len(text), "max_coef_bits": bits}
