import itertools
import json
import random

import numpy as np
import pytest

from meandim import metrics, subshifts
from meandim.groups import (CapExceeded, GroupSpec, GroupWindow, ball, box,
                            interval, product_window)
from meandim.subshifts import (Alphabet, Rule,
                               SubshiftSpec, _frontier_count, _sweep_window,
                               cellwise_pair_shift, count_patterns,
                               count_windows,
                               enumerate_patterns, extensible_symbols,
                               fiber_table, full_shift, golden_mean,
                               hard_square, json_int, mcmullen_shift,
                               pair_shift_with_b_rule, projected_spec,
                               projection_count_interval, spec_from_json)


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


def test_array_step_promotes_wide_frontiers_to_object_keys(array_step,
                                                           monkeypatch):
    dtypes = []

    def recorded(bound):
        dtypes.append(np.dtype(metrics.exact_int_dtype(bound)))
        return dtypes[-1]

    monkeypatch.setattr(subshifts, "exact_int_dtype", recorded)
    equal = Rule.nearest_neighbor(4, {axis: [(s, t) for s in range(4)
                                             for t in range(4) if s != t]
                                      for axis in (0, 1)})
    spec = SubshiftSpec(2, Alphabet(4), equal, "equal-neighbours")
    # 33 frontier cells of 2 bits: 66 bits, past int64
    assert count_patterns(spec, box(33, GroupSpec(2))) == 4
    assert dtypes[0] == np.int64 and dtypes[-1] == object


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


def test_frontier_count_records_the_running_total_at_each_stop():
    swept = _sweep_window(interval(0, 29))
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
