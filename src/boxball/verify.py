"""Brute-force oracles and fixture checks for the algebraic identities.

The master oracle builds each pair isomorphism independently of the closed forms: match
highest weight elements by weight, then propagate along lowering edges.  It runs on index
pairs into the lowering tables `crystals.factor_tables` makes anew per call, and calls no
`isomorphisms` function, so it shares no code with the swaps it checks; it builds crystal
elements only for the table it returns.  The oracle check compares the swap's two factors
with the table's, and builds an element only for a counterexample it reports.  The rest scan
exhaustive or seeded-random domains and report the first counterexample instead of raising;
a path suite runs a `PATH_RELATIONS` row, check(path, `separate` record, capacity) ->
mismatch or None, on seeded paths of a `PATH_KINDS` row, and `check_image` on every small
path of a `PATH_DOMAINS` row.  The symmetric-group and composition checks run each swap word
on the run of factors its letters touch, as ids interned by value per call, swapping each
distinct pair of ids once by `swap_pair`: the memo lives for one call, so it sees a fault
planted before the call, `isomorphisms` stays uncached, and far commutation (disjoint swaps)
holds by design.
"""

from __future__ import annotations

import random
import time
from itertools import chain, product

from .crystals import (
    MAX_DOMAIN,
    ColumnPair,
    DomainSizeError,
    RowTableau,
    Shape,
    TensorElement,
    Value,
    _cap_alphabet,
    _check_alphabet,
    _signature,
    col,
    counts_to_row,
    crystal_size,
    factor_tables,
    highest_weight_indices,
    highest_weights,
    is_column,
    is_highest_weight,
    iter_crystal,
    iter_tensor,
    tensor,
    tensor_at,
    tensors_at,
    tensor_size,
)
from .dynamics import BasicPath, InhomPath, InvalidWordError, ball_count
from .isomorphisms import swap_adjacent, swap_pair
from .separation import check_commutation, combine, separate


class RelationReport(Value):
    def __init__(self, relation: str, domain: int, counterexample: str | None,
                 elapsed: float) -> None:
        self._store(relation, domain, counterexample, elapsed)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class DecompositionFixture(Value):
    def __init__(self, shapes: tuple[Shape, ...], n: int,
                 expected: tuple[tuple[Shape, int], ...]) -> None:
        self._store(shapes, n, expected)


def _report(relation: str, domain: int, counterexamples, t0: float) -> RelationReport:
    """The report on the first of `counterexamples` (pass if there is none), timed from
    `t0`; an exception raised while it is sought is that counterexample."""
    try:
        counterexample = next(iter(counterexamples), None)
    except Exception as exc:
        counterexample = f"raised {type(exc).__name__}: {exc}"
    return RelationReport(relation, domain, counterexample, time.perf_counter() - t0)


def _words_disagree(elements, pairs):
    """For each element in turn, the message of every (message, word_a, word_b) row whose
    two swap words send it to different elements, formatted only then: it may name the
    element `{t}`, the images `{lhs}`, `{rhs}` and the letters `{a}` of word_a.  The words
    run on factor ids (see the module docstring) in the row's window, from one left of its
    smallest letter to its largest (a swap i acts on the factors i - 1, i): a word costs its
    length whatever k is, and the factors outside the window are equal on both sides."""
    ids: dict = {}  # factor -> id
    factors: list = []  # id -> factor
    memo: dict = {}  # (id, id) -> (id, id)

    def intern(f):
        if (i := ids.get(f)) is None:
            i = ids[f] = len(factors)
            factors.append(f)
        return i

    def image(fs, word):  # `word` holds its swaps (j, j + 1) in `fs`, rightmost first
        for j, i in word:
            if (got := memo.get(pair := (fs[j], fs[i]))) is None:
                res = swap_pair(factors[fs[j]], factors[fs[i]])
                got = memo[pair] = intern(res.left), intern(res.right)
            fs[j], fs[i] = got
        return fs

    def element(fs):
        return TensorElement(tuple(factors[f] for f in fs))

    rows = []
    for message, word_a, word_b in pairs:
        lo, hi = min(word_a + word_b) - 1, max(word_a + word_b) + 1
        rows.append((message, word_a, lo, hi, [(i - 1 - lo, i - lo) for i in reversed(word_a)],
                     [(i - 1 - lo, i - lo) for i in reversed(word_b)]))
    for t in elements:
        fs = list(map(intern, t.factors))
        for message, letters, lo, hi, word_a, word_b in rows:
            if (lhs := image(fs[lo:hi], word_a)) != (rhs := image(fs[lo:hi], word_b)):
                yield message.format(t=t, a=letters, lhs=element(fs[:lo] + lhs + fs[hi:]),
                                     rhs=element(fs[:lo] + rhs + fs[hi:]))


# ---------------------------------------------------------------------------
# seeded random elements (shared with the test suite) and the path suites


def random_factor(rng: random.Random, shape: Shape, n: int):
    if is_column(shape):
        return ColumnPair(*sorted(rng.sample(range(1, n + 1), 2)), n)
    return RowTableau(tuple(sorted(rng.choices(range(1, n + 1), k=shape[0]))), n)


def random_tensor(rng: random.Random, shapes, n: int) -> TensorElement:
    return TensorElement(tuple(random_factor(rng, s, n) for s in shapes))


def random_basic_path(rng: random.Random, n: int, max_len: int = 60, max_balls: int = 25):
    length = rng.randint(1, max_len)
    balls = rng.randint(0, min(max_balls, length))
    positions = rng.sample(range(length), balls)
    sites = [1] * length
    for k in positions:
        sites[k] = rng.randint(2, n)
    return BasicPath(tuple(sites), n)


def random_inhom_path(rng: random.Random, n: int):
    sites = []
    for _ in range(rng.randint(1, 14)):
        cap = rng.randint(1, 4)
        counts = [0] * n
        counts[0] = cap
        for _ in range(rng.randint(0, cap)):
            letter = rng.randint(2, n)
            counts[0] -= 1
            counts[letter - 1] += 1
        sites.append(tuple(counts))
    return InhomPath(tuple(sites), n, rng.randint(1, 4))


def _theorem(p, record, cap):  # looks up check_commutation per call, so a wrapper applies
    """check word conservation, then the commutation theorem"""
    return check_commutation(p, cap, record).mismatch


PATH_RELATIONS = {"theorem": _theorem}  # a row's docstring is its subcommand's help
PATH_KINDS = {"basic": random_basic_path, "inhom": random_inhom_path}


def _check_path_domain(mode: str, n: int, size: int, values: int, tails: int) -> None:
    """The `MAX_DOMAIN` guard of `PATH_DOMAINS`, before any path is made: each of `tails`
    tails holds `values`^size paths, and `values` >= 2."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if tails * values ** min(size, MAX_DOMAIN.bit_length()) > MAX_DOMAIN:
        raise DomainSizeError(f"{mode} paths of n={n} up to size {size}: over the cap of "
                              f"{MAX_DOMAIN}")


def basic_paths(n: int, size: int, monochrome: bool = False):
    """Every basic path over 1..n of at most `size` boxes, once each: each tuple of `size`
    letters, its trailing vacuum trimmed; only those of letters 1 and 2 if `monochrome`."""
    _check_path_domain("basic", n, size, n, 1)
    letters = range(1, 3 if monochrome else n + 1)
    return (BasicPath(sites, n) for sites in product(letters, repeat=size))


def inhom_paths(n: int, size: int, monochrome: bool = False):
    """Every inhomogeneous path over 1..n of at most `size` sites of capacity 1..n-1, with a
    tail capacity of 1 or 2 that is one of those, once each: each tuple of `size` sites, its
    trailing vacuum trimmed; only those of letters 1 and 2 if `monochrome`."""
    tails = range(1, min(n, 3))
    _check_path_domain("inhom", n, size, sum(crystal_size((c,), n) for c in range(1, n)),
                       len(tails))
    rows = [r.counts() for c in range(1, n) for r in iter_crystal((c,), n)
            if not monochrome or r.entries[-1] <= 2]
    return (InhomPath(sites, n, t) for t in tails for sites in product(rows, repeat=size))


PATH_DOMAINS = {"basic": basic_paths, "inhom": inhom_paths}


def _check_path_args(n, *rows) -> None:  # `rows` of (name, table): name is a key of table
    for name, table in rows:
        if name not in table:
            raise ValueError(f"unknown {name!r}; want one of {', '.join(table)}")
    _check_alphabet(n)


def check_image(mode: str, n: int, size: int) -> RelationReport:
    """`combine` accepts exactly the image of `separate`: it gives back each path p of
    `PATH_DOMAINS[mode](n, size)` from `separate(p)`, and for each monochrome m of the
    domain and word w over 2..n of at most `ball_count(m)` letters, `combine(m, w)` raises
    InvalidWordError or `separate` gives back (m, w).  Any other exception fails.  The
    domain is the number of pairs `combine` accepts; paths and pairs are under `MAX_DOMAIN`."""
    t0 = time.perf_counter()
    _check_path_args(n, (mode, PATH_DOMAINS))
    monos = list(PATH_DOMAINS[mode](n, size, monochrome=True))
    if sum((n - 1) ** k for m in monos for k in range(ball_count(m) + 1)) > MAX_DOMAIN:
        raise DomainSizeError(f"{mode} image of n={n} up to size {size}: over the cap of "
                              f"{MAX_DOMAIN} pairs")
    pairs = ((m, w) for m in monos for k in range(ball_count(m) + 1)
             for w in product(range(2, n + 1), repeat=k))
    accepted, wrong = 0, []
    for m, w in pairs:
        try:
            p = combine(m, w)
        except InvalidWordError:  # (m, w) is not in the image
            continue
        except Exception as exc:
            wrong.append(f"combine({m}, {w}) raised {type(exc).__name__}: {exc}")
            break
        accepted += 1
        try:
            rec = separate(p)
        except Exception as exc:
            wrong.append(f"separate(combine({m}, {w})) raised {type(exc).__name__}: {exc}")
            break
        if (rec.monochrome, rec.word) != (m, w):
            wrong.append(f"separate(combine({m}, {w})) gives ({rec.monochrome}, {rec.word})")
            break
    for p in () if wrong else PATH_DOMAINS[mode](n, size):  # each path is in the image
        try:
            rec = separate(p)
            back = combine(rec.monochrome, rec.word)
        except Exception as exc:
            wrong.append(f"combine(separate({p})) raised {type(exc).__name__}: {exc}")
            break
        if back != p:
            wrong.append(f"combine(separate({p})) gives {back}")
            break
    return _report(f"image[mode={mode}, n={n}, size={size}]", accepted, wrong, t0)


def check_path_suite(
    relation: str, mode: str, n: int, count: int, seed: int, capacities
) -> RelationReport:
    """On `count` seeded random paths of `PATH_KINDS[mode]` (alphabets 2..n <= `MAX_ALPHABET`),
    each carrier capacity (None: unbounded) keeps `PATH_RELATIONS[relation]`; any exception
    that decoding or the check raises on a path is its counterexample."""
    if count < 1 or not capacities:
        raise ValueError(f"need >= 1 path and capacity, got {count} and {capacities}")
    _check_path_args(n, (relation, PATH_RELATIONS), (mode, PATH_KINDS))
    _cap_alphabet(n)
    if (domain := count * len(capacities)) > MAX_DOMAIN:
        raise DomainSizeError(f"path suite domain of {domain} checks, cap is {MAX_DOMAIN}")
    rng = random.Random(seed)

    def counterexamples():
        for k in range(count):
            p = PATH_KINDS[mode](rng, rng.randint(2, n))
            try:
                record = separate(p)
                for cap in capacities:
                    if (mismatch := PATH_RELATIONS[relation](p, record, cap)) is not None:
                        yield f"path #{k} {p}: {mismatch}"
            except Exception as exc:
                yield f"path #{k} {p}: raised {type(exc).__name__}: {exc}"

    label = f"{relation}[mode={mode}, n<={n}, count={count}, seed={seed}]"
    return _report(label, domain, counterexamples(), time.perf_counter())


# ---------------------------------------------------------------------------
# the master oracle


def isomorphism_table(
    shape_a: Shape, shape_b: Shape, n: int
) -> dict[TensorElement, TensorElement]:
    """Construct the pair isomorphism from crystal structure alone.

    Highest weight elements of equal weight are matched (weights must be multiplicity free
    on both sides), then images propagate along lowering edges, on index pairs into
    `factor_tables`, until the whole domain is covered."""
    left = factor_tables([shape_a, shape_b], n)
    right = left[::-1]
    hw_right: dict[tuple, tuple] = {}
    for ks, w in highest_weight_indices(right, n):
        if hw_right.setdefault(w, ks) != ks:
            raise ValueError(f"weight {w} has multiplicity > 1; pair is unsupported")
    hw_left = highest_weight_indices(left, n)
    if len(hw_left) != len(hw_right):
        raise ValueError("highest weight counts differ; pair is unsupported")
    # the factor f_i acts on, per pair of the two factors' (epsilon_i, phi_i) pairs
    signs = [{pair for pairs in table.eps_phi for pair in pairs} for table in left]
    rule = {key: _signature(key)[3] for key in chain(product(*signs), product(*signs[::-1]))}

    def lowerings(tables, ks):  # f_1..f_{n-1} on the index pair `ks`, None for 0
        (ta, tb), (a, b) = tables, ks
        acts = map(rule.__getitem__, zip(ta.eps_phi[a], tb.eps_phi[b]))
        return [(ja, b) if k == 0 else (a, jb) if k == 1 else None
                for k, ja, jb in zip(acts, ta.lowered[a], tb.lowered[b])]

    mapping: dict[tuple, tuple] = {}
    stack = []
    for u, w in hw_left:
        if w not in hw_right:
            raise ValueError(f"no partner of weight {w}")
        mapping[u] = hw_right[w]
        stack.append(u)
    while stack:
        t = stack.pop()
        img = mapping[t]
        for i, a, b in zip(range(1, n), lowerings(left, t), lowerings(right, img)):
            if (a is None) != (b is None):
                at = f"{tensor_at(left, t)} / {tensor_at(right, img)}"
                raise ValueError(f"lowering mismatch at {at}, index {i}")
            if a is None:
                continue
            if a in mapping:
                if mapping[a] != b:
                    raise ValueError(f"inconsistent propagation at {tensor_at(left, a)}")
            else:
                mapping[a] = b
                stack.append(a)
    if len(mapping) != len(left[0].elements) * len(left[1].elements):
        raise ValueError("domain not covered from highest weight elements")
    return dict(zip(tensors_at(left, mapping), tensors_at(right, mapping.values())))


def check_swap_against_oracle(shape_a: Shape, shape_b: Shape, n: int) -> RelationReport:
    """Closed-form swap versus the oracle mapping, on the full pair domain.  An unsupported
    shape or alphabet raises; a raise of the oracle (one that cannot be built) or of the
    swap fails the check."""
    t0 = time.perf_counter()
    size = tensor_size([shape_a, shape_b], n)  # refuses bad arguments before any table

    def counterexamples():
        for t, expected in isomorphism_table(shape_a, shape_b, n).items():
            res = swap_pair(*t.factors)
            if (res.left, res.right) != expected.factors:
                yield f"{t} -> {TensorElement((res.left, res.right))}, oracle says {expected}"

    return _report(f"oracle[{shape_a}x{shape_b}, n={n}]", size, counterexamples(), t0)


# the (shape, shape, n) pairs `boxball verify oracle` checks by default: the verify workload's
ORACLE_PAIRS = (((3,), (1,), 4), ((1, 1), (1,), 4), ((3,), (1, 1), 5), ((1, 1), (3,), 5),
                ((4,), (1,), 5), ((4,), (2,), 4), ((2,), (4,), 4))


# ---------------------------------------------------------------------------
# symmetric group relations


def _domain(shapes, n: int, seed: int, count: int | None, work: int, unit: str):
    """(mode, size, elements): the product crystal ("exhaustive") or `count` <= `MAX_DOMAIN`
    elements drawn with `seed` ("random"), each made only as the check reaches it.  A check
    of `work` `unit`s per element is refused over `MAX_DOMAIN` in all, before any is made."""
    if count is not None:  # `tensor_size` checks the alphabet and shapes of the other branch
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        _check_alphabet(n)
        for shape in shapes:
            is_column(shape)
        if count > MAX_DOMAIN:
            raise DomainSizeError(f"random domain of {count} elements, cap is {MAX_DOMAIN}")
        if (letters := sum(map(sum, shapes))) > MAX_DOMAIN:  # each is drawn letter by letter
            raise DomainSizeError(f"random elements of {letters} letters, cap is {MAX_DOMAIN}")
    size = tensor_size(shapes, n) if count is None else count
    if size * work > MAX_DOMAIN:
        raise DomainSizeError(f"{size} elements x {work} {unit}, cap is {MAX_DOMAIN}")
    if count is None:
        return "exhaustive", size, iter_tensor(shapes, n)
    rng = random.Random(seed)
    return "random", size, (random_tensor(rng, shapes, n) for _ in range(count))


def check_symmetric_group(
    shapes, n: int, seed: int = 0, count: int | None = None
) -> RelationReport:
    """Involution and braid relation for the swaps; far commutation, on disjoint factors,
    holds by construction (see the module docstring) and is not checked."""
    t0 = time.perf_counter()
    k = len(shapes)
    if k < 2:
        raise ValueError(f"the relations need at least 2 shapes, got {k}")
    words = (k - 1) + (k - 2)  # involutions, braids
    mode, size, elements = _domain(shapes, n, seed, count, words, "relation words")
    pairs = [("swap_{a[0]}^2 != id at {t}", [i, i], []) for i in range(1, k)]
    braid = "braid fails at position {a[0]} on {t}: {lhs} vs {rhs}"
    pairs += [(braid, [i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, k - 1)]
    label = ",".join(str(tuple(s)) for s in shapes)
    relation = f"symmetric-group[{label}; n={n}; {mode}]"
    return _report(relation, size, _words_disagree(elements, pairs), t0)


# ---------------------------------------------------------------------------
# fixture chains: the two six-step cycles on row x row x column (n=3), by count vectors;
# the paper's row x box x column cycles are their l2 = 1 members


def _chain_fixtures_two_rows_col(l1: int, l2: int, x: int):
    n = 3

    def rw(c1, c2, c3):
        return counts_to_row((c1, c2, c3))

    chain1 = [
        tensor(rw(l1, 0, 0), rw(l2 - x, x, 0), col(2, 3, n)),
        tensor(rw(l2, 0, 0), rw(l1 - x, x, 0), col(2, 3, n)),
        tensor(rw(l2, 0, 0), col(1, 2, n), rw(l1 - x - 1, x, 1)),
        tensor(col(1, 2, n), rw(l2, 0, 0), rw(l1 - x - 1, x, 1)),
        tensor(col(1, 2, n), rw(l1, 0, 0), rw(l2 - x - 1, x, 1)),
        tensor(rw(l1, 0, 0), col(1, 2, n), rw(l2 - x - 1, x, 1)),
        tensor(rw(l1, 0, 0), rw(l2 - x, x, 0), col(2, 3, n)),
    ]
    chain2 = [
        tensor(rw(l1, 0, 0), rw(l2 - x - 1, x + 1, 0), col(1, 3, n)),
        tensor(rw(l2, 0, 0), rw(l1 - x - 1, x + 1, 0), col(1, 3, n)),
        tensor(rw(l2, 0, 0), col(2, 3, n), rw(l1 - x, x, 0)),
        tensor(col(1, 2, n), rw(l2 - 1, 0, 1), rw(l1 - x, x, 0)),
        tensor(col(1, 2, n), rw(l1 - 1, 0, 1), rw(l2 - x, x, 0)),
        tensor(rw(l1, 0, 0), col(2, 3, n), rw(l2 - x, x, 0)),
        tensor(rw(l1, 0, 0), rw(l2 - x - 1, x + 1, 0), col(1, 3, n)),
    ]
    return [
        (f"count-chain-1[l1={l1},l2={l2},x={x}]", chain1),
        (f"count-chain-2[l1={l1},l2={l2},x={x}]", chain2),
    ]


def check_highest_weight_chains() -> RelationReport:
    """Replay the fixture cycles of row (3) x row (l2) x column, asserting every
    intermediate exactly: the row x box x column cycles (l2 = 1), then l2 = 2 at x = 0, 1.

    Each cycle alternates swaps at positions 1 and 2 six times and must
    return to its starting highest weight element."""
    t0 = time.perf_counter()
    fixtures = [chain for l2, x in ((1, 0), (2, 0), (2, 1))
                for chain in _chain_fixtures_two_rows_col(3, l2, x)]

    def counterexamples():
        for name, chain in fixtures:
            if not is_highest_weight(chain[0]):
                yield f"{name}: start {chain[0]} is not highest weight"
            cur = chain[0]
            for step in range(6):
                cur = swap_adjacent(cur, 1 if step % 2 == 0 else 2)
                if cur != chain[step + 1]:
                    yield f"{name} step {step + 1}: got {cur}, expected {chain[step + 1]}"

    return _report("highest-weight-chains", 6 * len(fixtures), counterexamples(), t0)


# ---------------------------------------------------------------------------
# the two carrier compositions


def composition_words(n_carriers: int, n_boxes: int) -> tuple[list[int], list[int]]:
    """The two swap words that move a row past carriers-then-boxes versus
    boxes-then-carriers; they must agree as maps."""
    N, L = n_carriers, n_boxes
    x: list[int] = []
    for t in range(1, N + 1):
        x.extend(range(L + t - 1, t - 1, -1))
    x.extend(range(N + L, 0, -1))
    y: list[int] = list(range(N + L, 0, -1))
    for t in range(1, N + 1):
        y.extend(range(L + t, t, -1))
    return x, y


def check_carrier_composition(
    ell: int, n_carriers: int, n_boxes: int, n: int, seed: int = 0, count: int | None = None
) -> RelationReport:
    t0 = time.perf_counter()
    if n_carriers < 1 or n_boxes < 1:
        raise ValueError(f"need >= 1 carrier and box, got {n_carriers} and {n_boxes}")
    if (swaps := n_carriers * n_boxes + n_carriers + n_boxes) > MAX_DOMAIN:  # in each word
        raise DomainSizeError(f"swap words of {swaps} swaps, cap is {MAX_DOMAIN}")
    shapes = [(ell,)] + [(1, 1)] * n_carriers + [(1,)] * n_boxes
    mode, size, elements = _domain(shapes, n, seed, count, swaps, "swaps in each word")
    pairs = [("compositions differ on {t}", *composition_words(n_carriers, n_boxes))]
    relation = f"carrier-composition[l={ell},N={n_carriers},L={n_boxes},n={n};{mode}]"
    return _report(relation, size, _words_disagree(elements, pairs), t0)


# ---------------------------------------------------------------------------
# decomposition fixtures


def _fixture(shapes, n: int, expected) -> DecompositionFixture:
    """The fixture keeping each summand of `expected` whose shape is a partition of <= n rows."""
    kept = tuple((s, m) for s, m in expected
                 if len(s) <= n and min(s) > 0 and list(s) == sorted(s, reverse=True))
    return DecompositionFixture(shapes, n, kept)


def row_box_fixture(ell: int, n: int) -> DecompositionFixture:
    return _fixture(((ell,), (1,)), n, [((ell + 1,), 1), ((ell, 1), 1)])


def two_rows_col_fixture(l1: int, l2: int, n: int) -> DecompositionFixture:
    expected: list[tuple[Shape, int]] = []
    for x in range(1, l2 + 1):
        expected.append(((l1 + l2 - x, x, 1, 1), 1))
    for x in range(0, l2 + 1):
        expected.append(((l1 + l2 - x + 1, x + 1), 1))
    for x in range(0, l2):
        expected.append(((l1 + l2 - x, x + 1, 1), 2))
    expected.append(((l1, l2 + 1, 1), 1))
    return _fixture(((l1,), (l2,), (1, 1)), n, expected)


def check_decomposition(fixture: DecompositionFixture) -> RelationReport:
    """Highest-weight weight multiset versus the fixture's summand list."""
    t0 = time.perf_counter()
    got = {w: len(elems) for w, elems in highest_weights(fixture.shapes, fixture.n).items()}
    expected = {tuple(s) + (0,) * (fixture.n - len(s)): m for s, m in fixture.expected}
    missing = {w: m for w, m in expected.items() if got.get(w) != m}
    extra = {w: m for w, m in got.items() if expected.get(w) != m}
    counterexamples = [f"expected {missing}, found {extra}"] if missing or extra else []
    label = "x".join(str(tuple(s)) for s in fixture.shapes)
    size = tensor_size(fixture.shapes, fixture.n)
    return _report(f"decomposition[{label}, n={fixture.n}]", size, counterexamples, t0)


def standard_decomposition_fixtures() -> list[DecompositionFixture]:
    return [
        row_box_fixture(2, 3),
        two_rows_col_fixture(3, 1, 5),  # row x box x column
        two_rows_col_fixture(3, 1, 3),
        two_rows_col_fixture(3, 2, 5),
        two_rows_col_fixture(3, 2, 3),
        two_rows_col_fixture(2, 2, 3),
    ]
