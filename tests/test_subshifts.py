import itertools
import json
import math
import random

import numpy as np
import pytest

from meandim import groups, subshifts
from meandim.entropy import entropy_series, log_big
from meandim.groups import (CapExceeded, FolnerDescriptor, GroupSpec,
                            GroupWindow, ball, box, interval, minkowski_sum,
                            product_window)
from meandim.subshifts import (Alphabet, Rule,
                               SubshiftSpec, _cell_bans, _compile,
                               _frontier_count,
                               _is_translated_prefix, _layer_power,
                               _program,
                               cellwise_pair_shift, count_patterns,
                               count_windows,
                               enumerate_patterns, extensible_symbols,
                               fiber_table, full_shift, golden_mean,
                               hard_square, json_int, mcmullen_shift,
                               pair_shift_with_b_rule, projected_spec,
                               projection_count_interval, spec_from_json)
from oracles import position_map_cell_bans, sorted_sweep


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def brute_force_golden(n):
    """Count binary strings of length n with no adjacent ones."""
    total = 0
    for bits in itertools.product((0, 1), repeat=n):
        if all(not (a and b) for a, b in zip(bits, bits[1:])):
            total += 1
    return total


def test_golden_mean_counts_are_fibonacci():
    gm = golden_mean()
    for n in range(1, 21):
        assert count_patterns(gm, interval(0, n - 1)) == fib(n + 2)
    for n in range(1, 13):
        assert count_patterns(gm, interval(0, n - 1)) == brute_force_golden(n)


def test_golden_mean_enumeration_example():
    gm = golden_mean()
    ps = enumerate_patterns(gm, interval(0, 3))
    assert ps.count == 8
    assert len(set(ps.patterns)) == 8


def test_transfer_matrix_matches_backtracking():
    gm = golden_mean()
    for n in range(1, 15):
        w = interval(0, n - 1)
        assert count_patterns(gm, w) == len(enumerate_patterns(gm, w).patterns)


def test_full_shift_counts():
    fs = full_shift(6)
    w = ball(2, GroupSpec(2))  # 13 cells
    assert count_patterns(fs, w) == 6 ** 13


def test_hard_square_ball_oracle():
    hs = hard_square()
    w = ball(1, GroupSpec(2))
    # oracle: all 32 assignments of the five cells, checked by hand rule
    cells = w.elements
    pos = {c: i for i, c in enumerate(cells)}
    count = 0
    for bits in itertools.product((0, 1), repeat=5):
        ok = True
        for c in cells:
            for axis in (0, 1):
                nb = tuple(x + (1 if k == axis else 0) for k, x in enumerate(c))
                if nb in pos and bits[pos[c]] == 1 and bits[pos[nb]] == 1:
                    ok = False
        if ok:
            count += 1
    assert count == 17
    assert count_patterns(hs, w) == 17


def test_box_profile_dp_matches_backtracking():
    hs = hard_square()
    for n in (2, 3, 4):
        w = box(n, GroupSpec(2))
        assert count_patterns(hs, w) == len(enumerate_patterns(hs, w).patterns)


def test_submultiplicative_over_interval_concatenation():
    gm = golden_mean()
    for n, m in [(3, 4), (5, 5), (2, 9)]:
        big = count_patterns(gm, interval(0, n + m - 1))
        assert big <= (count_patterns(gm, interval(0, n - 1))
                       * count_patterns(gm, interval(0, m - 1)))


def test_contradictory_rule_counts_zero():
    dead = SubshiftSpec(1, Alphabet(2), Rule.cellwise(2, []), "dead")
    assert count_patterns(dead, interval(0, 3)) == 0
    assert enumerate_patterns(dead, interval(0, 3)).count == 0


def test_projection_examples():
    # the projected patterns are the keys of the fiber table
    mc = mcmullen_shift()
    w = ball(0, GroupSpec(1))
    assert len(fiber_table(mc, w).entries) == 2
    # full paired shift projects onto b^{|w|}
    fs = full_shift((3, 2))
    w2 = interval(0, 2)
    assert len(fiber_table(fs, w2).entries) == 2 ** 3
    # a fiber-trivial pairing projects bijectively
    bij = cellwise_pair_shift(2, 2, [(0, 0), (1, 1)])
    assert len(fiber_table(bij, w2).entries) == \
        enumerate_patterns(bij, w2).count


def test_project_requires_pairs():
    fs = full_shift(4)
    with pytest.raises(ValueError):
        fiber_table(fs, interval(0, 1))


def test_fiber_counts_examples():
    mc = mcmullen_shift()
    table = fiber_table(mc, ball(0, GroupSpec(1)))
    assert table.entries == {bytes([0]): 2, bytes([1]): 1}
    fs = full_shift((3, 2))
    t2 = fiber_table(fs, interval(0, 1))
    assert set(t2.entries.values()) == {3 ** 2}
    assert t2.total == 6 ** 2


def test_fiber_counts_golden_on_b_free_a():
    spec = pair_shift_with_b_rule(2, golden_mean())
    w = interval(0, 2)
    table = fiber_table(spec, w)
    assert len(table.entries) == 5
    assert all(t == 8 for t in table.entries.values())
    assert table.total == count_patterns(spec, w)


def test_fiber_totals_match_counts():
    for spec in (mcmullen_shift(), full_shift((2, 2)),
                 pair_shift_with_b_rule(2, golden_mean())):
        w = interval(0, 3)
        table = fiber_table(spec, w)
        assert table.total == count_patterns(spec, w)
        b = spec.alphabet.b
        assert set(table.entries) == {bytes(s % b for s in p) for p in
                                      enumerate_patterns(spec, w).patterns}


def test_count_equals_enumeration_cross_check():
    specs = [golden_mean(), full_shift(3), mcmullen_shift(),
             pair_shift_with_b_rule(2, golden_mean()), hard_square()]
    windows = [interval(0, 4), ball(1, GroupSpec(1))]
    for spec in specs:
        for w in windows:
            if spec.rank != w.spec.rank:
                continue
            assert count_patterns(spec, w) == enumerate_patterns(spec, w).count
    hs = hard_square()
    for w in (ball(1, GroupSpec(2)), box(3, GroupSpec(2))):
        assert count_patterns(hs, w) == enumerate_patterns(hs, w).count


def test_projected_spec_derivations():
    assert projected_spec(full_shift((3, 2))).alphabet.size == 2
    mc_proj = projected_spec(mcmullen_shift())
    assert mc_proj.rule.allowed_symbols is None or \
        set(mc_proj.rule.symbols) == {0, 1}
    lifted = pair_shift_with_b_rule(2, golden_mean())
    proj = projected_spec(lifted)
    assert proj is not None
    for n in range(1, 10):
        assert count_patterns(proj, interval(0, n - 1)) == fib(n + 2)


def test_projection_count_interval_detects_boundary_gap():
    gm = golden_mean()
    for n in (2, 5, 9):
        w = interval(0, n - 1)
        assert projection_count_interval(gm, w) == count_patterns(gm, w)
    # one-way rule: 0 -> {0,1}, 1 -> {} has free-boundary words that never
    # extend forward, so the projection count drops
    oneway = SubshiftSpec(1, Alphabet(2),
                          Rule.nearest_neighbor(2, {0: [(1, 0), (1, 1)]}),
                          "one-way")
    w = interval(0, 1)
    assert count_patterns(oneway, w) == 2
    assert projection_count_interval(oneway, w) == 1


def transfer_projection_count(spec, n):
    """The transfer loop projection_count_interval used to run: start on the
    backward-extensible symbols, step along the matrix, end on the
    forward-extensible ones."""
    rule = spec.rule
    bwd, fwd = extensible_symbols(rule, 0)
    mat = rule.matrix_for_axis(0)
    if mat is None:
        return len(set(rule.symbols) & bwd & fwd) ** n
    vec = {s: 1 if s in bwd else 0 for s in rule.symbols}
    for _ in range(n - 1):
        nxt = {t: 0 for t in rule.symbols}
        for s, cnt in vec.items():
            for t in rule.symbols:
                if mat[s][t]:
                    nxt[t] += cnt
        vec = nxt
    return sum(cnt for s, cnt in vec.items() if s in fwd)


def random_rank1_rule(rng, reducible):
    """A random 1-d NN rule on 1..4 symbols, sometimes with a cellwise
    symbol set; reducible rules only step from a symbol to itself or a
    later one, so some symbols never extend one way."""
    size = rng.randint(1, 4)
    mat = [[rng.random() < 0.6 and (t >= s or not reducible)
            for t in range(size)] for s in range(size)]
    allowed = None
    if rng.random() < 0.4:
        allowed = frozenset(s for s in range(size) if rng.random() < 0.7)
    return SubshiftSpec(1, Alphabet(size), Rule(
        size=size, allowed_symbols=allowed,
        axis_allowed=((0, tuple(tuple(row) for row in mat)),)))


@pytest.mark.parametrize("reducible", [False, True])
def test_projection_count_interval_matches_the_transfer_loop(reducible):
    rng = random.Random(7 + reducible)
    for _ in range(60):
        spec = random_rank1_rule(rng, reducible)
        for n in range(1, 16):
            w = interval(3, n + 2)
            assert projection_count_interval(spec, w) == \
                transfer_projection_count(spec, n)
    # a rule without adjacency: the trimmed symbols, freely
    free = SubshiftSpec(1, Alphabet(3), Rule.cellwise(3, [0, 2]))
    assert projection_count_interval(free, interval(0, 4)) == \
        transfer_projection_count(free, 5) == 2 ** 5


def test_forbidden_pattern_rule_matches_nn():
    # the golden mean expressed as an explicit forbidden domino
    forb = SubshiftSpec(1, Alphabet(2),
                        Rule.forbidden_patterns(2, [(((0,), (1,)), (1, 1))]),
                        "golden-domino")
    gm = golden_mean()
    for n in range(1, 10):
        w = interval(0, n - 1)
        assert count_patterns(forb, w) == count_patterns(gm, w)


def test_gxn_window_counts():
    # digit rule forbidding (1,1) along the depth axis, window {0} x {0..N-1}
    spec = SubshiftSpec(2, Alphabet(2), Rule.nearest_neighbor(2, {1: [(1, 1)]}),
                        "vertical-golden")
    f = ball(0, GroupSpec(1))
    for depth in range(1, 12):
        pw = product_window(f, depth)
        assert count_patterns(spec, pw) == fib(depth + 2)


GOLDEN_DOMINO = SubshiftSpec(
    1, Alphabet(2), Rule.forbidden_patterns(2, [(((0,), (1,)), (1, 1))]),
    "golden-domino")

FORBIDDEN_2D = SubshiftSpec(
    2, Alphabet(3),
    Rule.forbidden_patterns(3, [(((0, 0), (1, 1)), (1, 1)),
                                (((0, 0), (0, 1), (1, 0)), (2, 0, 2)),
                                (((0, 0), (0, 0)), (1, 2))]),  # never matches
    "forbidden-2d")

# asymmetric rules: a 0 never directly precedes a 1, so the legal words
# are 1^a 0^b; MIXED also bans a 1 directly before a 0
NO_01 = SubshiftSpec(1, Alphabet(2), Rule.nearest_neighbor(2, {0: [(0, 1)]}),
                     "no-01")
MIXED = SubshiftSpec(1, Alphabet(2), Rule(
    size=2, axis_allowed=NO_01.rule.axis_allowed,
    forbidden=((((0,), (1,)), (1, 0)),)), "mixed")
ASYMMETRIC_2D = SubshiftSpec(
    2, Alphabet(3), Rule.nearest_neighbor(3, {0: [(0, 1), (2, 0)],
                                              1: [(1, 2), (0, 0)]}),
    "asymmetric-2d")


def _core_cases():
    g1, g2, g3 = GroupSpec(1), GroupSpec(2), GroupSpec(3)
    for spec in (full_shift(3), golden_mean(), mcmullen_shift(),
                 cellwise_pair_shift(2, 2, [(0, 0), (1, 1)]),
                 pair_shift_with_b_rule(2, golden_mean()), GOLDEN_DOMINO,
                 NO_01, MIXED):
        for w in (interval(-2, 4), ball(2, g1), box(3, g1)):
            yield spec, w
    for spec in (hard_square(), full_shift(2, rank=2), FORBIDDEN_2D,
                 pair_shift_with_b_rule(2, hard_square()), ASYMMETRIC_2D):
        for w in (ball(1, g2), box(2, g2), box(3, g2),
                  product_window(ball(1, g1), 3)):
            yield spec, w
    yield hard_square(), ball(2, g2)
    for w in (ball(1, g3), box(2, g3), product_window(box(2, g2), 2)):
        yield golden_mean(3), w


def test_frontier_dp_matches_enumeration():
    for spec, w in _core_cases():
        assert count_patterns(spec, w) == enumerate_patterns(spec, w).count, \
            (spec.name, w.kind, w.index)


def test_asymmetric_rules_keep_their_orientation():
    for n in range(1, 9):
        w = interval(0, n - 1)
        words = {bytes([1] * a + [0] * (n - a)) for a in range(n + 1)}
        assert set(enumerate_patterns(NO_01, w).patterns) == words
        assert count_patterns(NO_01, w) == n + 1
        assert enumerate_patterns(MIXED, w).patterns == (bytes(n),
                                                         bytes([1] * n))
        assert count_patterns(MIXED, w) == 2


def test_matrices_that_ban_nothing_keep_no_frontier_cells():
    # axis 0 is free and axis 1 golden mean: 16 independent golden columns
    # of 16 cells, and no free edge keeps a cell in the frontier
    rule = spec_from_json({"rank": 2, "alphabet": {"k": 2},
                           "rule": {"type": "nearest_neighbor",
                                    "axis_forbidden": {"0": [],
                                                       "1": [[1, 1]]}}})
    assert count_patterns(rule, box(16, GroupSpec(2)), cap=2000) == \
        fib(18) ** 16
    assert count_patterns(FREE_NN_2D, box(24, GroupSpec(2)), cap=2000) == \
        2 ** 576


def test_frontier_dp_is_independent_of_window_order():
    hs = hard_square()
    w = box(5, GroupSpec(2))
    shuffled = GroupWindow(spec=w.spec, elements=tuple(reversed(w.elements)))
    wide = GroupWindow(spec=w.spec, elements=tuple(
        (x, y) for x in range(2) for y in range(9)))
    tall = GroupWindow(spec=w.spec, elements=tuple(
        (y, x) for x, y in wide.elements))
    assert count_patterns(hs, shuffled) == count_patterns(hs, w) == 55447
    assert count_patterns(hs, wide) == count_patterns(hs, tall)


# OEIS A006506: independent sets in the n x n grid graph, n = 1..16.
A006506 = (2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955,
           770548397261707, 2030049051145980050, 12083401651433651945979,
           162481813349792588536582997, 4935961285224791538367780371090,
           338752110195939290445247645371206783,
           52521741712869136440040654451875316861275,
           18396766424410124752958806046933947217821482942)


def test_hard_square_boxes_1_to_16_match_oeis():
    hs = hard_square()
    got = [count_patterns(hs, box(n, GroupSpec(2))) for n in range(1, 17)]
    assert tuple(got) == A006506


def test_hard_square_boxes_13_to_16_match_oeis():
    # OEIS A006506
    want = {13: 4935961285224791538367780371090,
            14: 338752110195939290445247645371206783,
            15: 52521741712869136440040654451875316861275,
            16: 18396766424410124752958806046933947217821482942}
    hs = hard_square()
    for n, count in want.items():
        assert count_patterns(hs, box(n, GroupSpec(2))) == count


def test_long_interval_counts_and_enumerates():
    w = interval(0, 4999)
    assert count_patterns(GOLDEN_DOMINO, w) == fib(5002)
    alternating = SubshiftSpec(
        1, Alphabet(2), Rule.nearest_neighbor(2, {0: [(0, 0), (1, 1)]}),
        "alternating")
    ps = enumerate_patterns(alternating, w)
    assert ps.count == 2
    assert ps.patterns[0] == bytes([0, 1]) * 2500


def test_frontier_state_cap():
    with pytest.raises(CapExceeded, match=r"^patterns cap 50 exceeded: "
                       r"box\(10\) needs \d+ live frontier states$"):
        _frontier_count(hard_square(), box(10, GroupSpec(2)), cap=50)


@pytest.fixture
def array_step(monkeypatch):
    """Every frontier DP step runs on arrays, from the first cell on."""
    monkeypatch.setattr(subshifts, "_ARRAY_STATES", 0)


def test_array_step_matches_enumeration(array_step):
    for spec, w in _core_cases():
        assert count_patterns(spec, w) == enumerate_patterns(spec, w).count, \
            (spec.name, w.kind, w.index)


def test_array_step_counts_fibonacci_and_full_shifts(array_step):
    gm = golden_mean()
    for n in range(1, 21):
        assert count_patterns(gm, interval(0, n - 1)) == fib(n + 2)
    g2 = GroupSpec(2)
    for k in (2, 3):
        # an adjacency rule that bans nothing: counted by the DP, not the
        # closed form
        free = SubshiftSpec(2, Alphabet(k),
                            Rule.nearest_neighbor(k, {0: [], 1: []}), "free")
        for w in (ball(2, g2), box(3, g2), box(4, g2)):
            assert count_patterns(free, w) == k ** len(w)


def test_array_step_frontier_state_cap(array_step):
    with pytest.raises(CapExceeded, match="^patterns cap 50 exceeded: "):
        _frontier_count(hard_square(), box(10, GroupSpec(2)), cap=50)


class _RecordingNumpy:
    """numpy as `subshifts` sees it, but `np.add.reduceat` records the dtype
    of what it sums: the counts of every array step, in order."""

    def __init__(self, dtypes):
        self.add = self
        self.dtypes = dtypes

    def reduceat(self, counts, starts):
        self.dtypes.append(counts.dtype)
        return np.add.reduceat(counts, starts)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def count_dtypes(monkeypatch):
    """The dtype of the counts at each array step of every count made."""
    dtypes = []
    monkeypatch.setattr(subshifts, "np", _RecordingNumpy(dtypes))
    return dtypes


@pytest.fixture
def key_dtypes(monkeypatch):
    """The dtype of the keys of each array step that builds a plan."""
    dtypes = []

    def recorded(keys, keep, moves):
        dtypes.append(keys.dtype)
        return plan(keys, keep, moves)

    plan = subshifts._step_plan
    monkeypatch.setattr(subshifts, "_step_plan", recorded)
    return dtypes


def test_array_step_promotes_wide_frontiers_to_object_keys(array_step,
                                                           key_dtypes,
                                                           count_dtypes):
    equal = Rule.nearest_neighbor(4, {axis: [(s, t) for s in range(4)
                                             for t in range(4) if s != t]
                                      for axis in (0, 1)})
    spec = SubshiftSpec(2, Alphabet(4), equal, "equal-neighbours")
    # 33 frontier cells of 2 bits: 66 bits, past int64
    assert count_patterns(spec, box(33, GroupSpec(2))) == 4
    assert key_dtypes[0] == np.int64 and key_dtypes[-1] == object
    # four patterns: the counts never leave int64
    assert set(count_dtypes) == {np.dtype(np.int64)}


def test_array_step_promotes_counts_where_their_bound_reaches_int64(
        array_step, count_dtypes):
    # one frontier state whose count doubles at every cell: the bound is
    # the count itself, 2^k after k cells, so the counts turn to object on
    # the 63rd step, the first whose result may not fit, and stay there
    for n in range(60, 67):
        count_dtypes.clear()
        totals = _frontier_count(FREE_NN_2D, _rectangle(1, n),
                                 range(1, n + 1))
        assert totals == [2 ** k for k in range(1, n + 1)]
        assert all(type(t) is int for t in totals)
        assert len(count_dtypes) == n
        fit = min(n, 62)
        assert set(count_dtypes[:fit]) == {np.dtype(np.int64)}
        assert count_dtypes[fit:] == [np.dtype(object)] * (n - fit)


def test_hard_square_counts_stay_int64_while_their_bound_fits(count_dtypes):
    hs = hard_square()
    for n in range(1, 17):
        count_dtypes.clear()
        w = box(n, GroupSpec(2))
        totals = _frontier_count(hs, w, range(1, len(w) + 1))
        assert totals[-1] == A006506[n - 1]
        assert all(type(t) is int for t in totals)
        # promoted once, never demoted
        kinds = [d == object for d in count_dtypes]
        assert kinds == sorted(kinds), n
        if n == 10:  # 2030049051145980050 < 2^63
            assert count_dtypes and set(kinds) == {False}
        if n in (11, 12):
            assert not kinds[0] and kinds[-1], n


def _rectangle(width, height):
    return GroupWindow(spec=GroupSpec(2), elements=tuple(
        (x, y) for x in range(width) for y in range(height)))


def _hard_square_rectangle(width, height):
    """Independent sets of the width x height grid graph, by a transfer
    matrix over the rows of `width` bits with no two adjacent ones."""
    rows = [r for r in range(1 << width) if not r & (r >> 1)]
    ways = dict.fromkeys(rows, 1)
    for _ in range(height - 1):
        ways = {r: sum(c for s, c in ways.items() if not r & s) for r in rows}
    return sum(ways.values())


def test_array_step_hard_square_boxes_match_oeis(array_step):
    hs = hard_square()
    got = [count_patterns(hs, box(n, GroupSpec(2))) for n in range(1, 13)]
    assert tuple(got) == A006506[:12]


def test_array_step_hard_square_rectangles(array_step):
    hs = hard_square()
    assert count_patterns(hs, _rectangle(5, 9)) == \
        count_patterns(hs, _rectangle(9, 5)) == _hard_square_rectangle(5, 9)
    for width, height in itertools.product(range(1, 5), range(1, 7)):
        for w in (_rectangle(width, height), _rectangle(height, width)):
            assert count_patterns(hs, w) == enumerate_patterns(hs, w).count


def test_array_step_three_symbol_rule_matches_enumeration(array_step):
    # three symbols take 2-bit frontier slots
    rule = Rule.nearest_neighbor(3, {0: [(0, 1), (1, 1), (2, 2)],
                                     1: [(0, 0), (1, 0), (2, 1)]})
    spec = SubshiftSpec(2, Alphabet(3), rule, "three")
    for n in range(1, 5):
        w = box(n, GroupSpec(2))
        assert count_patterns(spec, w) == enumerate_patterns(spec, w).count


def test_array_step_plans_are_keyed_on_kept_slots_and_clauses(array_step):
    # steps of one sweep row that meet equal keys but keep other slots or
    # read other clauses; a plan keyed on the keys alone miscounts both
    corner = SubshiftSpec(2, Alphabet(2), Rule.forbidden_patterns(
        2, [(((0, 0), (1, 2), (1, 0)), (0, 1, 0))]), "corner")
    for width, height in itertools.product(range(1, 5), range(1, 5)):
        w = _rectangle(width, height)
        assert count_patterns(corner, w) == \
            enumerate_patterns(corner, w).count, (width, height)
    # a 0 has no successor along axis 1: each column is all ones or ends
    # in its only 0
    column_end = SubshiftSpec(2, Alphabet(2), Rule.nearest_neighbor(
        2, {0: [], 1: [(0, 0), (0, 1)]}), "column-end")
    for n in range(1, 7):
        assert count_patterns(column_end, box(n, GroupSpec(2))) == 2 ** n


def test_array_step_reuses_the_plans_of_repeated_steps(array_step,
                                                       monkeypatch):
    built = []

    def recorded(keys, keep, moves):
        built.append(keep)
        return plan(keys, keep, moves)

    plan = subshifts._step_plan
    monkeypatch.setattr(subshifts, "_step_plan", recorded)
    w = box(12, GroupSpec(2))
    assert count_patterns(hard_square(), w) == A006506[11]
    # every one of the window's cells takes an array step
    assert 0 < len(built) < len(w)


FREE_NN = SubshiftSpec(1, Alphabet(2), Rule.nearest_neighbor(2, {0: []}),
                      "free-nn")
FREE_NN_2D = SubshiftSpec(2, Alphabet(2),
                          Rule.nearest_neighbor(2, {0: [], 1: []}), "free-nn")


def _window_series():
    """(spec, windows) series over golden mean, hard square, forbidden
    pattern and free rules, both families, ranks 1 and 2, with nested and
    non-nested index lists."""
    g1, g2 = GroupSpec(1), GroupSpec(2)
    build = {"balls": ball, "boxes": box}
    rank1 = (golden_mean(), GOLDEN_DOMINO, full_shift(2), FREE_NN)
    rank2 = (hard_square(), FORBIDDEN_2D, full_shift(2, rank=2), FREE_NN_2D)
    for specs, group, top in ((rank1, g1, 7), (rank2, g2, 4)):
        lists = {"balls": [tuple(range(top + 1)), (top, 1, 3, 0, 3), (2,)],
                 "boxes": [tuple(range(1, 8)), (6, 2, 7, 4, 4, 1), (3,)]}
        for spec in specs:
            for family, indices in lists.items():
                for index_list in indices:
                    yield spec, [build[family](m, group) for m in index_list]
    # translated and non-prefix windows in one rank-1 series
    holes = GroupWindow(spec=g1, elements=((0,), (2,), (3,)))
    for spec in rank1:
        yield spec, [interval(3, 9), interval(-4, -1), holes, ball(2, g1),
                     interval(-20, -11), box(1, g1)]
    for depths in ((1, 2, 3, 4), (4, 2, 3)):
        yield hard_square(), [product_window(ball(1, g1), d) for d in depths]


@pytest.mark.parametrize("states", [64, 0], ids=["dict", "array"])
def test_count_windows_matches_count_patterns(monkeypatch, states):
    monkeypatch.setattr(subshifts, "_ARRAY_STATES", states)
    for spec, windows in _window_series():
        got = count_windows(spec, iter(windows))
        assert [w for w, _ in got] == windows
        assert [c for _, c in got] == [count_patterns(spec, w)
                                       for w in windows], spec.name


def test_count_windows_sweeps_rank_1_series_once(monkeypatch):
    alone = []
    monkeypatch.setattr(subshifts, "count_patterns",
                        lambda spec, w, cap: alone.append(w) or 0)
    g1, g2 = GroupSpec(1), GroupSpec(2)
    count_windows(golden_mean(), [box(n, g1) for n in range(1, 65)])
    count_windows(golden_mean(), [ball(m, g1) for m in (9, 2, 0, 5)])
    assert alone == []
    boxes = [box(n, g2) for n in (1, 2, 3)]
    count_windows(hard_square(), boxes)
    assert alone == boxes[1:2]  # box(1) is one cell, box(3) the sweep


def _built_windows(rank):
    """Every ball of radius 0..6 and box of side 1..6 of Z^rank, and in
    rank 1 every interval inside -6..6."""
    spec = GroupSpec(rank)
    windows = [ball(k, spec) for k in range(7)]
    windows += [box(k, spec) for k in range(1, 7)]
    if rank == 1:
        windows += [interval(lo, hi) for lo in range(-6, 7)
                    for hi in range(lo, 7)]
    return windows


def _built_products(rank):
    """The products of built windows of Z^(rank-1): of intervals, rank-1
    balls and boxes at depths 1-8 in rank 2, of rank-2 boxes at depths 1-4
    in rank 3.  The depth axis is the longest, one of the longest or
    shorter than the others."""
    g1, g2 = GroupSpec(1), GroupSpec(2)
    if rank == 2:
        return [product_window(w, d) for w in (
            interval(-2, 1), interval(3, 3), ball(0, g1), ball(2, g1),
            box(1, g1), box(5, g1)) for d in range(1, 9)]
    if rank == 3:
        return [product_window(box(k, g2), d) for k in (1, 2, 3)
                for d in range(1, 5)]
    return []


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sweeps_of_built_windows_match_the_sorted_sweep(rank):
    g1 = GroupSpec(1)
    others = [minkowski_sum(ball(1, g1), interval(3, 5))] if rank == 1 else []
    for w in _built_windows(rank) + _built_products(rank) + others:
        swept, want = w.sweep(), sorted_sweep(w)
        assert swept.elements == want.elements
        assert (swept.spec, swept.kind, swept.index) == (w.spec, w.kind,
                                                         w.index)
        assert swept.sweep().elements == want.elements


SHIPPED_RULES = {
    1: (full_shift(3), golden_mean(), mcmullen_shift(),
        cellwise_pair_shift(2, 2, [(0, 0), (1, 1)]),
        pair_shift_with_b_rule(2, golden_mean()), GOLDEN_DOMINO, NO_01,
        MIXED),
    2: (hard_square(), full_shift(2, rank=2), FORBIDDEN_2D,
        pair_shift_with_b_rule(2, hard_square()), ASYMMETRIC_2D),
    3: (golden_mean(3), full_shift(2, rank=3)),
}


# rules whose instances reach two layers back along axis 0, and forward
# along the inner axes; the rank-3 one also has a pattern that never
# matches
REACH_TWO = {
    1: SubshiftSpec(1, Alphabet(2), Rule.forbidden_patterns(
        2, [(((0,), (2,)), (1, 1))]), "ones-two-apart"),
    2: SubshiftSpec(2, Alphabet(2), Rule.forbidden_patterns(
        2, [(((0, 0), (2, 1)), (1, 1)), (((0, 0), (1, -2)), (1, 1))]),
        "knight"),
    3: SubshiftSpec(3, Alphabet(3), Rule.forbidden_patterns(3, [
        (((0, 0, 0), (1, -1, 1), (0, 1, -1)), (1, 2, 0)),
        (((0, 0, 0), (2, 1, -1), (0, 0, 1)), (2, 1, 2)),
        (((0, 0, 0), (0, 0, 0)), (1, 2))]), "forbidden-3d"),
}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cell_bans_match_the_position_map(rank):
    for w in _built_windows(rank):
        for spec in SHIPPED_RULES[rank] + (REACH_TWO[rank],):
            for window in (w, w.sweep()):
                assert _cell_bans(spec, window) == \
                    position_map_cell_bans(spec, window), (spec.name, w.name)


@pytest.fixture
def placed(monkeypatch):
    """The number of cells of every window that `_cell_bans` places the
    rule on, in order."""
    sizes = []

    def recorded(spec, window):
        sizes.append(len(window))
        return cell_bans(spec, window)

    cell_bans = subshifts._cell_bans
    monkeypatch.setattr(subshifts, "_cell_bans", recorded)
    return sizes


def _reach(spec, axis):
    """The furthest a clause of the rule reaches along the axis."""
    rule = spec.rule
    return max([1 for a, _ in rule.axis_allowed if a == axis] +
               [max(o[axis] for o in offs) - min(o[axis] for o in offs)
                for offs, _ in rule.forbidden], default=0)


def _slab(spec, w):
    """The cells of the slab of a built cube that its program is compiled
    from: at most 2 reach + 1 of its layers along the sweep's outermost
    axis, the first of the longest sides."""
    sides = w._shape[2]
    outer = sides.index(max(sides))
    return min(sides[outer], 2 * _reach(spec, outer) + 1) * \
        math.prod(sides) // sides[outer]


def _longer_program(spec, w):
    """The program of a built cube of more than 2 reach + 1 layers along
    its outermost axis, stated as the first cells and steps of `_compile`
    on the cube lengthened by `reach` layers along that axis; None for any
    other window."""
    if w._shape[0] != "cube":
        return None
    corner, sides = w._shape[1:]
    outer = sides.index(max(sides))
    reach = _reach(spec, outer)
    if sides[outer] <= 2 * reach + 1:
        return None
    sides = sides[:outer] + (sides[outer] + reach,) + sides[outer + 1:]
    longer = GroupWindow(w.spec, tuple(itertools.product(
        *(range(c, c + side) for c, side in zip(corner, sides)))))
    want = _compile(spec, sorted_sweep(longer))
    cells = want.cells[:len(w)]
    return want.replace(steps=want.steps[:max(cells) + 1], cells=cells)


def _assert_cube_programs(rules, windows, placed):
    """Every window's program, its repeat aside, equals the program of its
    sorted sweep, or, for a built cube longer than its slab, the first
    cells of the program of the cube lengthened by `reach` layers
    (`_longer_program`).  A built cube's reads the clauses of its slab and
    of no larger window, and the repeat it states is whole periods of its
    cells with fewer than one period after them."""
    for w in windows:
        for spec in rules:
            want = _longer_program(spec, w) or _compile(spec, sorted_sweep(w))
            placed.clear()
            program = _program(spec, w)
            assert program.replace(repeat=None) == want, (spec.name, w.name)
            if program.repeat is not None:
                start, period, repeats = program.repeat
                cells = program.cells
                assert repeats >= 2 and \
                    0 <= len(cells) - (start + period * repeats) < period
                assert cells[start:start + period * repeats] == \
                    cells[start:start + period] * repeats, (spec.name, w.name)
            if w._shape[0] == "cube":
                assert max(placed) <= _slab(spec, w), (spec.name, w.name)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_shape_programs_equal_the_programs_of_cell_bans(rank, placed):
    g = GroupSpec(rank)
    sums = [minkowski_sum(box(2, g), box(3, g))]
    if rank == 2:  # sides 3 and 4
        sums.append(minkowski_sum(product_window(interval(0, 1), 4),
                                  box(2, g)))
    if rank == 1:
        sums += [minkowski_sum(ball(2, g), interval(-3, 1)),
                 minkowski_sum(interval(-5, -2), box(4, g))]
    _assert_cube_programs(SHIPPED_RULES[rank] + (REACH_TWO[rank],),
                          _built_windows(rank) + _built_products(rank) + sums,
                          placed)


# rules that reach three layers back along axis 0, so that a cube compiles
# from all its cells up to side 7 and from a slab of 7 layers past that
REACH_THREE = (
    SubshiftSpec(1, Alphabet(2), Rule.forbidden_patterns(
        2, [(((0,), (3,)), (1, 1))]), "ones-three-apart"),
    SubshiftSpec(2, Alphabet(2), Rule.forbidden_patterns(
        2, [(((0, 0), (3, -1)), (1, 1))]), "three-back"))


@pytest.mark.parametrize("spec", REACH_THREE, ids=lambda spec: spec.name)
def test_cube_programs_about_the_slab_boundary(spec, placed):
    g = GroupSpec(spec.rank)
    windows = [box(side, g) for side in range(1, 13)]
    _assert_cube_programs([spec], windows, placed)
    for w in windows:
        if len(w) <= 12:
            assert count_patterns(spec, w) == \
                enumerate_patterns(spec, w).count, w.name


def _least_cap(spec, w):
    """The least patterns cap under which the window counts, by bisection
    below 2^16, or 2^16 when none below it does."""
    lo, hi = 0, 2 ** 16
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            count_patterns(spec, w, mid)
            hi = mid
        except CapExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_built_cubes_count_and_cap_as_their_explicit_copies(rank,
                                                            monkeypatch):
    # a built cube's last layers seat cells that no clause of the cube
    # reads, and its count is the DP's running total at its last cell
    g = GroupSpec(rank)
    rules = SHIPPED_RULES[rank] + (REACH_TWO[rank],) + tuple(
        spec for spec in REACH_THREE if spec.rank == rank)
    top = {1: 40, 2: 8, 3: 4}[rank]
    cases = [(spec, box(side, g), subshifts._ARRAY_STATES)
             for side in range(1, top + 1) for spec in rules]
    if rank == 2:  # and with array steps from the first cell
        cases += [(hard_square(), box(side, g), 0) for side in range(1, 13)]
    for spec, w, states in cases:
        monkeypatch.setattr(subshifts, "_ARRAY_STATES", states)
        copy = GroupWindow(g, w.elements)
        cap = _least_cap(spec, w)
        assert _least_cap(spec, copy) == cap, (spec.name, w.name)
        if cap < 2 ** 16:  # larger ones are compared by their caps alone
            assert count_patterns(spec, w, cap) == \
                count_patterns(spec, copy, cap), (spec.name, w.name)


@pytest.mark.parametrize("states", [64, 0], ids=["dict", "array"])
def test_counting_built_cubes_places_only_a_slab(monkeypatch, placed,
                                                 states):
    monkeypatch.setattr(subshifts, "_ARRAY_STATES", states)
    g1, g2 = GroupSpec(1), GroupSpec(2)
    assert count_patterns(hard_square(), box(12, g2)) == A006506[11]
    # three rows of 12 cells
    assert max(placed) == 36
    placed.clear()
    got = count_windows(golden_mean(), [ball(m, g1) for m in range(40)])
    assert [c for _, c in got] == [fib(2 * m + 3) for m in range(40)]
    swept = interval(-4, 5).sweep()  # enumerated in its own, sweep, order
    assert enumerate_patterns(golden_mean(), swept).count == fib(12)
    assert max(placed) == 3


def test_a_long_built_interval_counts_from_its_shape(placed, layer_calls):
    n = 10 ** 5
    program = _program(golden_mean(), interval(0, n - 1))
    # the first cell and every later one: the last has no face of its own
    assert len(program.steps) == 2 and len(program.cells) == n
    assert count_patterns(golden_mean(), interval(0, n - 1)) == fib(n + 2)
    # the head is the first cell: the n - 1 cells after it are one layer,
    # raised to the power n - 1 over two keys, up to the last cell
    assert layer_calls == [(2, 1, n - 1)]
    # both compiles place the rule on a slab of three cells alone
    assert placed == [3, 3]


def test_array_steps_build_one_plan_per_distinct_step(array_step,
                                                      monkeypatch):
    built = []

    def recorded(keys, keep, moves):
        built.append(keep)
        return plan(keys, keep, moves)

    plan = subshifts._step_plan
    monkeypatch.setattr(subshifts, "_step_plan", recorded)
    for n in range(3, 13):
        built.clear()
        w = box(n, GroupSpec(2))
        assert count_patterns(hard_square(), w) == A006506[n - 1]
        # row 0 and the steady row, which the last row repeats as it has
        # no upper face; box 3 is its slab and keeps its last row, whose
        # first cell steps as a steady one
        assert len(built) == len(_program(hard_square(), w).steps) == \
            (2 * n if n >= 4 else 8)


def test_explicit_rectangles_replay_the_rows_of_their_sweep(array_step,
                                                          monkeypatch,
                                                          layer_calls):
    # an explicit window states no repeat, so it takes no layer operator
    # even where every repeat would
    monkeypatch.setattr(subshifts, "_takes_layers", lambda m, n: True)
    built = []

    def recorded(keys, keep, moves):
        built.append(keep)
        return plan(keys, keep, moves)

    plan = subshifts._step_plan
    monkeypatch.setattr(subshifts, "_step_plan", recorded)
    g = GroupSpec(2)
    counts = []
    for a, b in ((8, 20), (20, 8)):  # the longer axis is swept outermost
        built.clear()
        w = GroupWindow(g, tuple(itertools.product(range(a), range(b))))
        counts.append(count_patterns(hard_square(), w))
        # rows of 8 cells: row 0, the steady row, the last row
        assert _program(hard_square(), w).row == 8
        assert len(built) == len(_program(hard_square(), w).steps) == 23
    assert counts[0] == counts[1]
    assert layer_calls == []


def test_counting_path_neither_sorts_nor_looks_up_cells(monkeypatch):
    def no_key(g):
        raise AssertionError("canonical_key was called")

    monkeypatch.setattr(groups, "canonical_key", no_key)
    for rank in (1, 2, 3):
        for w in _built_windows(rank):
            w.sweep()
    sweeps = []

    def frontier_count(spec, window, *args, **kwargs):
        sweeps.append(window)
        return _frontier_count(spec, window, *args, **kwargs)

    monkeypatch.setattr(subshifts, "_frontier_count", frontier_count)
    windows = [box(n, GroupSpec(1)) for n in range(1, 65)]
    got = count_windows(golden_mean(), windows)
    assert [c for _, c in got] == [fib(n + 2) for n in range(1, 65)]
    assert len(sweeps) == 1
    assert all("position_map" not in w.__dict__ for w in windows + sweeps)


def test_built_intervals_are_prefixes_by_their_lengths():
    g1, g2 = GroupSpec(1), GroupSpec(2)
    built = [box(3, g1), ball(2, g1), interval(-4, 9), interval(2, 1),
             interval(-9, -7), box(20, g1)]
    others = [GroupWindow(spec=g1, elements=((0,), (1,))),
              GroupWindow(spec=g1, elements=((0,), (2,))),
              minkowski_sum(ball(1, g1), ball(1, g1))]
    for i, window in enumerate(built + others):
        for j, of in enumerate(built + others):
            swept = of.sweep()
            prefix, k = swept.elements[:len(window)], len(window)
            want = 0 < k <= len(swept) and {
                (x + prefix[0][0] - min(window.elements)[0],)
                for x, in window.elements} == set(prefix)
            assert _is_translated_prefix(window, swept) == want, (i, j)
            if i < len(built) and j < len(built):  # lengths alone
                assert "position_map" not in swept.__dict__
    # other windows look their cells up
    swept = box(3, g2).sweep()
    assert _is_translated_prefix(box(1, g2), swept)
    assert not _is_translated_prefix(box(2, g2), swept)
    assert "position_map" in swept.__dict__


def test_frontier_count_records_the_running_total_at_each_stop():
    swept = interval(0, 29).sweep()
    stops = [1, 2, 7, 8, 29, 30]
    assert _frontier_count(golden_mean(), swept, stops) == [
        fib(k + 2) for k in stops]


def test_golden_mean_balls_0_to_200_are_fibonacci():
    g1 = GroupSpec(1)
    got = count_windows(golden_mean(), (ball(m, g1) for m in range(201)))
    assert [c for _, c in got] == [fib(2 * m + 3) for m in range(201)]


def test_count_windows_raises_a_cell_cap_after_counting_earlier_windows():
    def windows(cap):
        for n in range(1, 13):
            yield box(n, GroupSpec(2), cap)

    with pytest.raises(CapExceeded, match="^patterns cap 20 exceeded: "):
        count_windows(hard_square(), windows(100), cap=20)
    with pytest.raises(CapExceeded, match=r"^cells cap 100 exceeded: "
                       r"box\(11\) needs 121 cells$"):
        count_windows(hard_square(), windows(100))


def test_pattern_cap():
    fs = full_shift(2)
    with pytest.raises(CapExceeded, match="^patterns cap 1000 exceeded: "
                       "explicit window of 20 cells needs >= 1001 patterns$"):
        enumerate_patterns(fs, interval(0, 19), cap=1000)
    # fib(12) = 144 words of length 10; the cap is the last count allowed
    gm, w = golden_mean(), interval(0, 9)
    assert enumerate_patterns(gm, w, cap=144).count == 144
    with pytest.raises(CapExceeded, match="^patterns cap 143 exceeded: "):
        enumerate_patterns(gm, w, cap=143)
    # 2^6 * fib(8) = 1344 pair patterns on six cells
    pair = pair_shift_with_b_rule(2, gm)
    w = interval(0, 5)
    assert sum(fiber_table(pair, w, cap=1344).entries.values()) == 1344
    with pytest.raises(CapExceeded, match="^patterns cap 1343 exceeded: "):
        fiber_table(pair, w, cap=1343)


def test_json_round_trip():
    doc = {"rank": 1, "alphabet": {"a": 4, "b": 2},
           "rule": {"type": "cellwise", "allowed": [[0, 0], [1, 0], [0, 1]]},
           "name": "mcmullen"}
    spec = spec_from_json(json.dumps(doc))
    assert spec.alphabet.pair == (4, 2)
    w = ball(0, GroupSpec(1))
    assert count_patterns(spec, w) == 3
    nn = spec_from_json({"rank": 1, "alphabet": {"k": 2},
                         "rule": {"type": "nearest_neighbor",
                                  "axis_forbidden": {"0": [[1, 1]]}}})
    assert count_patterns(nn, interval(0, 4)) == fib(7)


def test_alphabet_byte_width_guard():
    with pytest.raises(ValueError):
        SubshiftSpec(1, Alphabet(300), Rule.full(300))


def test_rules_outside_the_alphabet_or_rank_are_rejected():
    with pytest.raises(ValueError, match="outside"):
        Alphabet(6, pair=(3, 2)).pair_index(0, 2)
    with pytest.raises(ValueError, match="forbidden pair"):
        Rule.nearest_neighbor(2, {0: [(1, 2)]})
    bad = [(0, Alphabet(2), Rule.full(2)),
           (1, Alphabet(2), Rule.cellwise(2, [2])),
           (1, Alphabet(2), Rule.nearest_neighbor(2, {1: [(1, 1)]})),
           (1, Alphabet(2), Rule.forbidden_patterns(2, [([(0,)], (1, 1))])),
           (1, Alphabet(2), Rule.forbidden_patterns(2, [([(0, 0)], (1,))])),
           (1, Alphabet(2), Rule.forbidden_patterns(2, [([], ())]))]
    for rank, alphabet, rule in bad:
        with pytest.raises(ValueError):
            SubshiftSpec(rank, alphabet, rule)


@pytest.mark.parametrize("value", [True, 2.0, "2", None])
def test_spec_integers_are_json_integers(value):
    with pytest.raises(ValueError, match="must be a JSON integer"):
        json_int(value, "k")
    with pytest.raises(ValueError, match="k must be a JSON integer"):
        spec_from_json({"alphabet": {"k": value}, "rule": {"type": "full"}})


# ---------------------------------------------------------------------------
# the layer operator against the step DP

@pytest.fixture
def layer_calls(monkeypatch):
    """`(states, cells per layer, repeats)` of every call of the layer
    operator that returned states, in order: the number of states it was
    given, the length of the layer and the layers it jumped."""
    calls = []

    def recorded(states, steps, layer, repeats, cap, window):
        got = power(states, steps, layer, repeats, cap, window)
        if got is not None:
            calls.append((len(states), len(layer), repeats))
        return got

    power = subshifts._layer_power
    monkeypatch.setattr(subshifts, "_layer_power", recorded)
    return calls


@pytest.fixture(params=["layers", "steps"])
def forced_path(request, monkeypatch):
    """Every count of a window whose program repeats a layer takes the
    layer operator, or none does."""
    taken = request.param == "layers"
    monkeypatch.setattr(subshifts, "_takes_layers", lambda m, n: taken)
    return request.param


ALTERNATING = SubshiftSpec(
    1, Alphabet(2), Rule.nearest_neighbor(2, {0: [(0, 0), (1, 1)]}),
    "alternating")
THREE_SYMBOLS = SubshiftSpec(
    1, Alphabet(3), Rule.nearest_neighbor(3, {0: [(0, 1), (1, 1), (2, 2)]}),
    "three")
GOLDEN_B = pair_shift_with_b_rule(2, golden_mean())
# per rank-1 rule, the count of n cells in closed form, or None
LAYER_RULES = ((golden_mean(), lambda n: fib(n + 2)),
               (ALTERNATING, lambda n: 2),
               (FREE_NN, lambda n: 2 ** n),
               (GOLDEN_B, lambda n: 2 ** n * fib(n + 2)),
               (THREE_SYMBOLS, None),
               # the even and the odd cells are two golden-mean words
               (REACH_TWO[1], lambda n: fib((n + 1) // 2 + 2) *
                fib(n // 2 + 2)))
# about the boundary of the selection rule (32 layers for every rule here,
# whose operators have 2 to 4 keys) and past it, up to 2000 cells
LAYER_LENGTHS = (1, 2, 3, 4, 5, 7, 12, 20, 33, 34, 35, 64, 65, 66, 67, 68,
                 129, 700, 1999, 2000)


def test_layer_operator_matches_the_step_dp(forced_path, layer_calls):
    g1 = GroupSpec(1)
    for spec, closed in LAYER_RULES:
        for n in LAYER_LENGTHS:
            windows = [interval(0, n - 1), box(n, g1)]
            if n % 2:
                windows.append(ball(n // 2, g1))
            # one sweep with a stop per window, on the step DP
            want = count_windows(spec, windows)[0][1]
            if closed is not None:
                assert want == closed(n), (spec.name, n)
            for w in windows:
                before = len(layer_calls)
                assert count_patterns(spec, w) == want, (spec.name, n)
                repeats = _program(spec, w).repeat is not None
                # every window of 8 cells or more repeats a layer
                assert repeats or n < 8, (spec.name, n)
                taken = len(layer_calls) > before
                assert taken == (forced_path == "layers" and repeats), \
                    (spec.name, n)
    if forced_path == "layers":
        # the rule that reads two cells back repeats every two cells
        assert (4, 2, 998) in layer_calls


def test_layer_operator_matches_enumeration(monkeypatch, layer_calls):
    monkeypatch.setattr(subshifts, "_takes_layers", lambda m, n: True)
    for spec, w in _core_cases():
        assert count_patterns(spec, w) == enumerate_patterns(spec, w).count, \
            (spec.name, w.kind, w.index)
    for width, height in itertools.product(range(1, 4), range(4, 8)):
        for w in (product_window(interval(0, width - 1), height),
                  product_window(interval(0, height - 1), width)):
            assert count_patterns(hard_square(), w) == \
                enumerate_patterns(hard_square(), w).count
    # the rank-1 windows of 5 and 7 cells of the five rules that are not
    # counted in closed form, and each of the 12 rectangles in both
    # orientations: a built rectangle of 4 or more layers along its longest
    # side states a repeat of 2 or more layers, where a search of the cells
    # of an explicit one found 9
    assert len(layer_calls) == 5 * 2 + 12 * 2


@pytest.mark.parametrize("states", [32, 0], ids=["dict", "array"])
def test_layer_operator_counts_hard_square_strips(forced_path, layer_calls,
                                                  monkeypatch, states):
    # with array steps from the first cell, the head's states come off
    # arrays and the tail goes back onto them
    monkeypatch.setattr(subshifts, "_ARRAY_STATES", states)
    hs = hard_square()
    for width in (2, 3, 4):
        want = _hard_square_rectangle(width, 200)
        for w in (product_window(interval(0, width - 1), 200),
                  product_window(interval(0, 199), width)):
            assert count_patterns(hs, w) == want
    if forced_path == "layers":
        # the head is the first column, and the 199 after it repeat up to
        # the last cell; the keys are the columns with no two adjacent ones
        assert layer_calls == [(k, w, 199) for w, k in ((2, 3), (2, 3),
                                                        (3, 5), (3, 5),
                                                        (4, 8), (4, 8))]
    else:
        assert layer_calls == []


def test_layers_are_whole_periods_of_sweep_rows():
    hs = hard_square()
    # rows of 8 cells: the first row is the head, and rows 1-7 repeat up
    # to the last cell, since the last row has no upper face
    assert _program(hs, box(8, GroupSpec(2))).repeat == (8, 8, 7)
    # the rule reads two cells back, and its steps repeat every two cells
    # from the third to the last
    assert _program(REACH_TWO[1], interval(0, 99)).repeat == (2, 2, 49)
    # a ball's rows differ in length, and a few cells repeat nothing
    assert _program(hs, ball(6, GroupSpec(2))).repeat is None
    assert _program(golden_mean(), interval(0, 2)).repeat is None


def test_a_long_interval_that_repeats_every_two_cells(placed, layer_calls):
    n = 10 ** 5
    spec = REACH_TWO[1]
    assert count_patterns(spec, interval(0, n - 1)) == \
        fib((n + 1) // 2 + 2) * fib(n // 2 + 2)
    # the first two cells are the head: the cells after them are
    # (n - 2) / 2 two-cell layers, up to the last cell, over the four keys
    # of two cells
    assert layer_calls == [(4, 2, 49999)]
    # the rule is placed on a slab of five cells alone
    assert max(placed) <= 5


def test_the_selection_rule_picks_the_layers_of_long_windows(layer_calls):
    gm, g1 = golden_mean(), GroupSpec(1)
    # the first cell is the head: n cells repeat a layer n - 1 times, up to
    # the last cell, from 32 of which the operator pays
    for n in (32, 33):
        assert count_patterns(gm, interval(0, n - 1)) == fib(n + 2)
    assert layer_calls == [(2, 1, 32)]
    layer_calls.clear()
    # count_windows' stops keep the step DP
    got = count_windows(gm, [box(n, g1) for n in (10, 100, 1000)])
    assert [c for _, c in got] == [fib(n + 2) for n in (10, 100, 1000)]
    assert layer_calls == []
    # a hard-square box's operator would hold a whole row of keys
    assert count_patterns(hard_square(), box(12, GroupSpec(2))) == \
        A006506[11]
    assert layer_calls == []


def test_layer_operator_states_are_checked_against_the_cap(monkeypatch):
    monkeypatch.setattr(subshifts, "_takes_layers", lambda m, n: True)
    hs = hard_square()
    w = product_window(interval(0, 3), 200)
    program = _program(hs, w)
    start, period, repeats = program.repeat
    # from the all-zero column, one layer reaches the 8 columns with no two
    # adjacent ones, once each
    layer = program.cells[start:start + period]
    got = _layer_power({0: 1}, program.steps, layer, 1, 8, w)
    assert len(got) == 8 and set(got.values()) == {1}
    # the strip is named as `product_window` names it
    with pytest.raises(CapExceeded, match=r"^patterns cap 7 exceeded: "
                       r"product\(200\) needs 8 live frontier states$"):
        _layer_power({0: 1}, program.steps, layer, repeats, 7, w)


def test_the_counting_workload_never_takes_the_layer_operator(monkeypatch):
    def no_layers(*args):
        raise AssertionError("the layer operator was called")

    monkeypatch.setattr(subshifts, "_layer_power", no_layers)
    for spec, family, indices, want in (
            (hard_square(), "boxes", range(1, 13), A006506[:12]),
            (hard_square(), "balls", range(4), (2, 17, 689, 139344)),
            (golden_mean(), "boxes", range(1, 65),
             [fib(n + 2) for n in range(1, 65)])):
        series = entropy_series(spec, FolnerDescriptor(family,
                                                       tuple(indices)))
        assert [r.log_count for r in series.rows] == list(map(log_big, want))


def test_a_spec_reads_one_group_per_rank():
    spec = hard_square()
    assert spec.group is spec.group is golden_mean(2).group
    assert spec.group == GroupSpec(2)
    assert golden_mean().group is full_shift(2).group == GroupSpec(1)
