import itertools
import random

import pytest
from fractions import Fraction

from meandim.groups import (CapExceeded, FolnerDescriptor, GroupSpec,
                            GroupWindow, ball, box, canonical_key,
                            canonical_order, interval, minkowski_sum,
                            product_window, word_length)
from oracles import add, generators, identity, sorted_sweep, windows


def minimal_word_key(g):
    """The order's definition: word length, then the lexicographically least
    minimal word, the sorted multiset of generator indices (+e_i is 2i,
    -e_i is 2i+1)."""
    word = []
    for axis, c in enumerate(g):
        word.extend([2 * axis if c > 0 else 2 * axis + 1] * abs(c))
    return len(word), tuple(word)


def folner_defect(window, g):
    """Exact |F \\ gF| / |F| for the left translate gF."""
    translated = {add(g, f) for f in window.elements}
    missing = sum(1 for f in window.elements if f not in translated)
    return Fraction(missing, len(window))


def bfs_word_length(g, rank, max_len=6):
    """Independent oracle: breadth-first search over generator words."""
    spec = GroupSpec(rank)
    frontier = {identity(spec)}
    if g == identity(spec):
        return 0
    for depth in range(1, max_len + 1):
        frontier = {add(h, gen) for h in frontier for gen in generators(spec)}
        if g in frontier:
            return depth
    raise AssertionError("not reached within max_len")


def test_word_length_examples():
    assert word_length((0, 0)) == 0
    assert word_length((2, -1)) == 3
    assert word_length((2, -1)) == bfs_word_length((2, -1), 2, max_len=4)
    assert word_length((5,)) == 5


def test_word_length_zero_iff_identity():
    for g in ball(3, GroupSpec(2)).elements:
        assert (word_length(g) == 0) == (g == (0, 0))


def test_ball_examples():
    b = ball(3, GroupSpec(1))
    assert set(b.elements) == {(x,) for x in range(-3, 4)}
    assert len(b) == 7
    assert len(ball(2, GroupSpec(2))) == 13
    assert ball(0, GroupSpec(2)).elements == ((0, 0),)


def test_ball_size_exact_count():
    # |ball(m)| = 2m(m+1)+1 in rank 2, against direct enumeration
    for m in range(21):
        brute = sum(1 for x in range(-m, m + 1) for y in range(-m, m + 1)
                    if abs(x) + abs(y) <= m)
        assert len(ball(m, GroupSpec(2))) == 2 * m * (m + 1) + 1 == brute


def test_ball_growth_strictly_increasing():
    for rank in (1, 2):
        sizes = [len(ball(m, GroupSpec(rank))) for m in range(8)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_canonical_order_rank1():
    assert ball(1, GroupSpec(1)).elements == ((0,), (1,), (-1,))


def test_canonical_order_rank2_generators_first():
    assert ball(1, GroupSpec(2)).elements == (
        (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def test_canonical_order_singleton():
    assert canonical_order([(3, -2)]) == [(3, -2)]


def test_canonical_order_is_total_order():
    # antisymmetric and transitive on all of ball(3), ranks 1 and 2
    for rank in (1, 2):
        elems = ball(3, GroupSpec(rank)).elements
        keys = [canonical_key(g) for g in elems]
        assert len(set(keys)) == len(keys)
        for a, b, c in itertools.islice(itertools.product(keys, repeat=3), 20000):
            if a <= b <= c:
                assert a <= c


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_canonical_key_orders_like_the_least_minimal_word(rank):
    rng = random.Random(rank)
    reach = {1: 5000, 2: 60, 3: 12}[rank]
    points = [tuple(rng.randint(-reach, reach) for _ in range(rank))
              for _ in range(3000)]
    assert (sorted(points, key=canonical_key)
            == sorted(points, key=minimal_word_key))
    for window in (ball(4, GroupSpec(rank)), box(5, GroupSpec(rank))):
        assert list(window.elements) == sorted(window.elements,
                                               key=minimal_word_key)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_builders_emit_their_cells_in_canonical_order(rank):
    spec = GroupSpec(rank)
    for k in range(7):
        cube = set(itertools.product(range(-k, k + 1), repeat=rank))
        windows = [(ball(k, spec), {g for g in cube if word_length(g) <= k})]
        if k:
            windows.append((box(k, spec),
                            set(itertools.product(range(k), repeat=rank))))
        for window, cells in windows:
            assert set(window.elements) == cells
            assert len(window) == len(cells)
            assert list(window.elements) == canonical_order(window.elements)
    if rank == 1:
        for lo in range(-6, 7):
            for hi in range(lo - 1, 7):
                elements = interval(lo, hi).elements
                assert sorted(elements) == [(x,) for x in range(lo, hi + 1)]
                assert list(elements) == canonical_order(elements)


def test_a_window_built_directly_checks_its_cells_are_distinct():
    with pytest.raises(ValueError, match="^window elements must be distinct$"):
        GroupWindow(spec=GroupSpec(1), elements=((0,), (1,), (0,)))


def test_folner_defect_examples():
    w = ball(4, GroupSpec(2))
    assert folner_defect(w, (0, 0)) == 0
    assert folner_defect(interval(-3, 3), (1,)) == Fraction(1, 7)
    # rank-2 oracle by explicit set difference
    w2 = ball(2, GroupSpec(2))
    shifted = {add((1, 0), f) for f in w2.elements}
    expect = Fraction(sum(1 for f in w2.elements if f not in shifted), len(w2))
    assert folner_defect(w2, (1, 0)) == expect


def test_folner_defect_monotone_for_balls():
    spec = GroupSpec(2)
    for gen in generators(spec):
        defects = [folner_defect(ball(m, spec), gen) for m in range(1, 9)]
        assert all(a >= b for a, b in zip(defects, defects[1:]))


def test_folner_defect_boxes_bound():
    spec = GroupSpec(2)
    for m in range(1, 33):
        w = box(m, spec)
        for gen in generators(spec):
            assert folner_defect(w, gen) < Fraction(2, m)


def test_product_window():
    assert len(product_window(interval(-3, 3), 3)) == 21
    assert len(product_window(interval(0, 0), 1)) == 1
    pw = product_window(ball(1, GroupSpec(2)), 2)
    assert len(pw) == 10
    # window-major: depth varies fastest
    assert pw.elements[0] == (0, 0, 0)
    assert pw.elements[1] == (0, 0, 1)
    assert pw.elements[2] == (1, 0, 0)


def test_ball_triangle_inclusion():
    spec = GroupSpec(2)
    for m, k in [(1, 1), (1, 2), (2, 2)]:
        big = set(ball(m + k, spec).elements)
        for g in ball(m, spec).elements:
            for h in ball(k, spec).elements:
                assert add(g, h) in big


def test_minkowski_sum_matches_triangle():
    spec = GroupSpec(1)
    s = minkowski_sum(ball(2, spec), ball(3, spec))
    assert set(s.elements) == set(ball(5, spec).elements)


def test_minkowski_sum_checks_its_cap_while_it_grows():
    spec = GroupSpec(1)
    a, b = interval(0, 99999), ball(6, spec)
    with pytest.raises(CapExceeded, match=r"^cells cap 10 exceeded: sum of "
                       r"explicit window of 100000 cells and ball\(6\) needs "
                       r">= \d+ cells$") as info:
        minkowski_sum(a, b, cap=10)
    assert int(str(info.value).split()[-2]) <= 10 + max(len(a), len(b))
    # a sum aborts exactly when its full set exceeds the cap
    for a, b in [(ball(2, spec), ball(3, spec)),
                 (box(3, GroupSpec(2)), ball(2, GroupSpec(2))),
                 (ball(1, GroupSpec(2)), box(4, GroupSpec(2)))]:
        size = len(minkowski_sum(a, b))
        assert len(minkowski_sum(a, b, cap=size)) == size
        with pytest.raises(CapExceeded, match="^cells cap"):
            minkowski_sum(a, b, cap=size - 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sums_of_built_cubes_are_built_cubes(rank):
    spec = GroupSpec(rank)
    cubes = [box(n, spec) for n in (1, 2, 3)]
    if rank == 1:
        cubes += [ball(0, spec), ball(2, spec), interval(-4, 2),
                  interval(-7, -5), interval(3, 6)]
    if rank == 2:  # boxes of unequal sides
        cubes += [product_window(interval(-2, 0), 2),
                  product_window(box(2, GroupSpec(1)), 4)]
    for a, b in itertools.product(cubes, repeat=2):
        s = minkowski_sum(a, b)
        old = tuple(canonical_order({add(g, h) for g in a.elements
                                     for h in b.elements}))
        assert s.elements == old
        assert (s.kind, s.index, s.name) == (
            "explicit", None, f"explicit window of {len(old)} cells")
        assert s._shape is not None
        assert s.sweep().elements == sorted_sweep(s).elements


def test_window_cap():
    # ball(m) of Z^2 has 2 m^2 + 2 m + 1 cells
    with pytest.raises(CapExceeded, match=r"^cells cap 1000 exceeded: "
                       r"ball\(2000\) needs 8004001 cells$"):
        ball(2000, GroupSpec(2), cap=1000)
    with pytest.raises(CapExceeded, match=r"^cells cap 1000 exceeded: "
                       r"box\(40\) needs 1600 cells$"):
        box(40, GroupSpec(2), cap=1000)
    with pytest.raises(CapExceeded, match=r"^cells cap 7 exceeded: "
                       r"product\(4\) needs 8 cells$"):
        product_window(box(2, GroupSpec(1)), 4, cap=7)
    for rank in (1, 2, 3):
        for m in range(5):
            size = len(ball(m, GroupSpec(rank)))
            assert len(ball(m, GroupSpec(rank), cap=size)) == size
            with pytest.raises(CapExceeded, match=f"needs {size} cells$"):
                ball(m, GroupSpec(rank), cap=size - 1)


def test_folner_descriptor_nested_and_diagnostics():
    # balls exhaust Z^rank; boxes [0,m)^rank exhaust only up to translation,
    # which is all the Folner property needs
    for family in ("balls", "boxes"):
        fd = FolnerDescriptor(family, (1, 2, 4))
        nested = windows(fd, GroupSpec(2))
        for small, big in zip(nested, nested[1:]):
            assert set(small.elements) <= set(big.elements)
        spec = GroupSpec(1)
        assert all(0 <= folner_defect(w, g) <= 1
                   for w in windows(fd, spec) for g in generators(spec))


def test_folner_descriptor_rejects_bad_indices():
    with pytest.raises(ValueError):
        FolnerDescriptor("balls", (3, 1))
    with pytest.raises(ValueError):
        FolnerDescriptor("spheres", (1, 2))
