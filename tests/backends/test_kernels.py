"""The shared column kernels against naive row-at-a-time references.

Each reference below is the obvious loop over row positions; a kernel
may be as clever as it likes (unique-build-key probes, identity
indices, C-level passes) as long as it answers like the loop.
"""

import random
from functools import cmp_to_key
from itertools import repeat

import pytest

from repro.backends import kernels as k
from repro.errors import PartialFunctionError
from repro.runtime import Catalog


def rows_of(cols):
    return list(zip(*cols))


# ----------------------------------------------------------------------
# naive references
# ----------------------------------------------------------------------

def ref_sort_perm(keys, n):
    def compare(i, j):
        for col, descending in keys:
            if col[i] != col[j]:
                less = col[i] < col[j]
                return -1 if less != descending else 1
        return i - j  # stable
    return sorted(range(n), key=cmp_to_key(compare))


def ref_row_number(perm, part):
    seen = {}
    out = [None] * len(perm)
    for i in perm:
        key = tuple(col[i] for col in part)
        seen[key] = seen.get(key, 0) + 1
        out[i] = seen[key]
    return out


def ref_dense_rank(perm, cols):
    out = [None] * len(perm)
    rank, prev = 0, None
    for n, i in enumerate(perm):
        key = tuple(col[i] for col in cols)
        if n == 0 or key != prev:
            rank += 1
        prev = key
        out[i] = rank
    return out


def ref_join(lcols, rcols):
    lrows, rrows = rows_of(lcols), rows_of(rcols)
    return [(i, j) for i, l in enumerate(lrows)
            for j, r in enumerate(rrows) if l == r]


def ref_distinct(cols):
    rows = rows_of(cols)
    return [i for i, row in enumerate(rows) if row not in rows[:i]]


def ref_groups(cols, n):
    rows = rows_of(cols) if cols else [()] * n
    keys = [row for i, row in enumerate(rows) if row not in rows[:i]]
    return keys, [[i for i, row in enumerate(rows) if row == key]
                  for key in keys]


REF_AGG = {
    "count": len, "sum": sum, "min": min, "max": max,
    "avg": lambda xs: float(sum(xs)) / len(xs), "all": all, "any": any,
}


def random_columns(rng, n, width, domain):
    return [[rng.randrange(domain) for _ in range(n)] for _ in range(width)]


# ----------------------------------------------------------------------
# scalar tables
# ----------------------------------------------------------------------

class TestScalarTables:
    @pytest.mark.parametrize("op", ["div", "idiv", "mod"])
    def test_division_by_zero_is_a_partial_function_error(self, op):
        with pytest.raises(PartialFunctionError):
            k.BIN[op](1, 0)
        with pytest.raises(PartialFunctionError):
            list(map(k.BIN[op], [4, 5.0], [2, 0.0]))

    def test_guarded_division_divides(self):
        assert k.BIN["div"](7.0, 2.0) == 3.5
        assert k.BIN["idiv"](7, 2) == 3
        assert k.BIN["mod"](7, 2) == 1

    def test_binary_and_unary_maps(self):
        assert list(map(k.BIN["add"], [1, 2, 3], [10, 20, 30])) == [
            11, 22, 33]
        assert list(map(k.BIN["cat"], ["a", "b"], ["x", "y"])) == ["ax", "by"]
        assert list(map(k.BIN["like"], ["abc", "xbc"], ["a%", "a%"])) == [
            True, False]
        assert list(map(k.BIN["and"], [True, True], [True, False])) == [
            True, False]
        assert list(map(k.UN["not"], [True, False])) == [False, True]
        assert list(map(k.UN["strlen"], ["", "abc"])) == [0, 3]

    def test_a_constant_operand_on_either_side(self):
        # the engine repeats a ``Const`` operand once per row
        assert list(map(k.BIN["sub"], repeat(10, 2), [1, 2])) == [9, 8]
        assert list(map(k.BIN["sub"], [1, 2], repeat(10, 2))) == [-9, -8]

    def test_covers_the_interpreters_operators(self):
        # The interpreter keeps its own tables (it is the oracle); the
        # operator *names* must still agree.
        from repro.expr.exp import ARITH_OPS, BOOL_OPS, CMP_OPS, STR_OPS
        assert set(k.BIN) == (set(ARITH_OPS) | set(BOOL_OPS) | set(CMP_OPS)
                              | set(STR_OPS))


# ----------------------------------------------------------------------
# loading, gathering, keys
# ----------------------------------------------------------------------

class TestColumns:
    def test_transpose(self):
        assert k.transpose([(1, "x"), (2, "y")], 2) == [[1, 2], ["x", "y"]]
        assert k.transpose([], 2) == [[], []]
        assert k.transpose((), 0) == []

    def test_table_columns_picks_and_orders_by_name(self):
        catalog = Catalog()
        catalog.create_table("t", [("a", int), ("b", str)],
                             [(2, "y"), (1, "x")])
        assert k.table_columns(catalog, "t", ["b", "a", "b"]) == [
            ["x", "y"], [1, 2], ["x", "y"]]
        assert k.table_columns(catalog, "t", []) == []

    def test_table_columns_of_an_empty_table(self):
        catalog = Catalog()
        catalog.create_table("t", [("a", int), ("b", str)], [])
        assert k.table_columns(catalog, "t", ["b", "a", "pos"]) == [
            [], [], []]

    def test_table_columns_are_the_catalogs_own(self):
        """A table is immutable: it is transposed once, scans share the
        lists -- and its position column is one of them."""
        catalog = Catalog()
        catalog.create_table("t", [("a", int), ("pos", str)],
                             [(2, "y"), (1, "x"), (2, "y")])
        first = k.table_columns(catalog, "t", ["a", "pos_"])
        assert first == [[1, 2, 2], [1, 2, 3]]
        again = k.table_columns(catalog, "t", ["pos_", "a"])
        assert again[0] is first[1] and again[1] is first[0]
        assert catalog.columns("t")["pos"] == ["x", "y", "y"]
        # a new table under the name is a new table
        catalog.drop_table("t")
        catalog.create_table("t", [("a", int)], [(7,)])
        assert k.table_columns(catalog, "t", ["a", "pos"]) == [[7], [1]]

    def test_gather(self):
        col, other = ["a", "b", "c"], [1, 2, 3]
        assert k.gather([col], [2, 0, 2]) == [["c", "a", "c"]]
        assert k.gather([col, other], [2, 0]) == [["c", "a"], [3, 1]]
        assert k.gather([col, other], [1]) == [["b"], [2]]
        assert k.gather([col], []) == [[]]
        assert k.gather([col], range(2)) == [["a", "b"]]
        assert k.gather([], [0, 0]) == []
        assert all(type(c) is list for c in k.gather([col, other], [0, 1]))

    def test_gather_by_the_identity_index_aliases(self):
        col = ["a", "b", "c"]
        assert k.gather([col], range(3))[0] is col
        assert k.gather([col], [0, 1, 2])[0] is not col

    def test_key_column(self):
        a, b = [1, 2], ["x", "y"]
        assert k.key_column([a]) is a
        assert k.key_column([a, b]) == [(1, "x"), (2, "y")]
        assert k.key_column([[], []]) == []


# ----------------------------------------------------------------------
# sorting and numbering
# ----------------------------------------------------------------------

class TestSortAndNumber:
    def test_empty(self):
        assert k.sort_perm([([], False)], 0) == []
        assert k.sort_perm([], 3) == [0, 1, 2]
        assert k.row_number([], [[]]) == []
        assert k.row_number([], []) == []
        assert k.dense_rank([], [[]]) == []

    def test_mixed_direction_multi_key_sort(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randrange(1, 40)
            cols = random_columns(rng, n, 3, 4)
            for directions in ((False, True, False), (True, True, False),
                               (True, False, True)):
                keys = list(zip(cols, directions))
                assert k.sort_perm(keys, n) == ref_sort_perm(keys, n)

    def test_sort_is_stable_and_handles_strings_descending(self):
        names = ["b", "a", "b", "a"]
        assert k.sort_perm([(names, True)], 4) == [0, 2, 1, 3]

    def test_row_number_partitioned_and_not(self):
        rng = random.Random(2)
        for width in (0, 1, 2):
            n = 30
            part = random_columns(rng, n, width, 3)
            order = random_columns(rng, n, 1, 5)[0]
            perm = k.sort_perm([(c, False) for c in part]
                               + [(order, True)], n)
            assert k.row_number(perm, part) == ref_row_number(perm, part)

    def test_row_number_along_a_perm_that_interleaves_partitions(self):
        part = [[1, 1, 2, 1]]
        perm = [3, 2, 0, 1]
        assert k.row_number(perm, part) == ref_row_number(perm, part) == [
            2, 3, 1, 1]

    def test_row_number_over_nan_partition_keys(self):
        """A NaN is no partition key like the others: one NaN object
        read twice is one partition (as a ``dict`` sees it), two NaN
        objects are two, and a NaN sorted into the middle of a partition
        splits its run without splitting its numbers."""
        nan, other = float("nan"), float("nan")
        for keys, perm in (([nan, 1.0, nan], [0, 2, 1]),
                           ([nan, 1.0, other], [0, 2, 1]),
                           ([1.0, nan, 1.0], [0, 1, 2]),
                           ([(1.0, nan), (2.0, nan), (1.0, nan)],
                            [0, 1, 2])):
            part = [keys] if not isinstance(keys[0], tuple) else [
                [a for a, _ in keys], [b for _, b in keys]]
            assert k.row_number(perm, part) == ref_row_number(perm, part)

    def test_unpartitioned_row_number_is_a_permutation_rank(self):
        assert k.row_number([2, 0, 1], []) == [2, 3, 1]

    def test_dense_rank_ties_share_a_rank(self):
        v = [5, 3, 5, 3, 9]
        perm = k.sort_perm([(v, False)], 5)
        assert k.dense_rank(perm, [v]) == [2, 1, 2, 1, 3]

    def test_dense_rank_multi_column(self):
        rng = random.Random(3)
        cols = random_columns(rng, 40, 2, 3)
        perm = k.sort_perm([(cols[0], False), (cols[1], True)], 40)
        assert k.dense_rank(perm, cols) == ref_dense_rank(perm, cols)


# ----------------------------------------------------------------------
# joins, duplicate elimination, products
# ----------------------------------------------------------------------

def join_pairs(lcols, rcols):
    li, ri = k.join_index(k.key_column(lcols), k.key_column(rcols))
    assert len(li) == len(ri)
    return sorted(zip(li, ri))


class TestJoins:
    def test_empty_sides(self):
        assert join_pairs([[]], [[1, 2]]) == []
        assert join_pairs([[1, 2]], [[]]) == []
        assert join_pairs([[]], [[]]) == []

    def test_unique_build_keys_with_unmatched_probes(self):
        assert join_pairs([[3, 1, 7, 1]], [[1, 2, 3]]) == [
            (0, 2), (1, 0), (3, 0)]

    def test_duplicate_build_keys(self):
        assert join_pairs([[1, 2]], [[2, 2, 3]]) == [(1, 0), (1, 1)]

    def test_all_matched_one_to_one_probe_is_the_identity_index(self):
        li, ri = k.join_index([2, 1, 2], [1, 2])
        assert li == range(3)
        assert ri == [1, 0, 1]
        # ... and only then: a miss gathers the probing side
        assert k.join_index([2, 9], [1, 2])[0] == [0]
        # repeated right keys, unique left keys: the right side probes,
        # so its index is the identity and only the left side gathers
        li, ri = k.join_index([2, 1], [1, 2, 2])
        assert ri == range(3)
        assert li == [1, 0, 0]

    def test_unique_left_keys_build_when_right_keys_repeat(self):
        """The right side probes in its own row order: misses drop out,
        and an empty left side matches nothing."""
        assert k.join_index([3, 1], [1, 7, 3, 1, 9]) == ([1, 0, 1],
                                                          [0, 2, 3])
        assert k.join_index([5], [1, 1]) == ([], [])
        assert k.join_index([], [1, 1]) == ([], [])
        lcols = [[1, 1, 2], ["a", "b", "a"]]  # width-2 keys
        rcols = [[1, 2, 1, 1, 3], ["b", "a", "b", "a", "a"]]
        li, ri = k.join_index(k.key_column(lcols), k.key_column(rcols))
        assert (li, ri) == ([1, 2, 1, 0], [0, 1, 2, 3])
        assert join_pairs(lcols, rcols) == ref_join(lcols, rcols)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("domain", [2, 6, 60])
    def test_against_nested_loops(self, width, domain):
        """Each branch answers like the loop: only the right side's
        keys are unique, only the left side's, or neither's."""
        rng = random.Random(width * 100 + domain)

        def side(unique):
            cols = random_columns(rng, rng.randrange(0, 25), width, domain)
            rows = rows_of(cols)
            if unique:
                rows = list(dict.fromkeys(rows))
            elif rows:
                rows.append(rows[0])
            return [list(col) for col in zip(*rows)] or [[]] * width

        for build in ["right", "left", "neither"] * 4:
            lcols = side(unique=build == "left")
            rcols = side(unique=build == "right")
            assert join_pairs(lcols, rcols) == ref_join(lcols, rcols)

    @pytest.mark.parametrize("width", [1, 2])
    def test_semi_and_anti_masks(self, width):
        rng = random.Random(width)
        lcols = random_columns(rng, 30, width, 5)
        rcols = random_columns(rng, 6, width, 5)
        matched = {i for i, _ in ref_join(lcols, rcols)}
        lkeys, rkeys = k.key_column(lcols), k.key_column(rcols)
        assert k.semi_mask(lkeys, rkeys, anti=False) == [
            i in matched for i in range(30)]
        assert k.semi_mask(lkeys, rkeys, anti=True) == [
            i not in matched for i in range(30)]
        assert k.semi_mask([], rkeys, anti=True) == []
        assert k.semi_mask(lkeys, [], anti=False) == [False] * 30

    @pytest.mark.parametrize("width", [1, 3])
    def test_distinct_index_keeps_first_occurrences(self, width):
        rng = random.Random(width)
        for n in (0, 1, 25):
            cols = random_columns(rng, n, width, 3)
            assert list(k.distinct_index(cols)) == ref_distinct(cols)

    def test_distinct_index_of_distinct_rows_is_the_identity_index(self):
        assert k.distinct_index([[3, 1, 2]]) == range(3)
        assert k.distinct_index([[1, 1], ["a", "b"]]) == range(2)
        assert k.distinct_index([[1, 1], ["a", "a"]]) == [0]

    @pytest.mark.parametrize("nl, nr", [(0, 3), (3, 0), (1, 3), (3, 1),
                                        (2, 3)])
    def test_cross_index_is_left_major(self, nl, nr):
        li, ri = k.cross_index(nl, nr)
        assert list(zip(li, ri)) == [(i, j) for i in range(nl)
                                     for j in range(nr)]


# ----------------------------------------------------------------------
# grouping and aggregation
# ----------------------------------------------------------------------

def ref_aggregate(func, values, members):
    """Fold each group's values; ``min``/``max`` of a group holding a
    NaN is NaN, wherever it stands."""
    out = []
    for m in members:
        xs = [values[i] for i in m]
        nans = [x for x in xs if x != x]
        out.append(nans[0] if func in ("min", "max") and nans
                   else REF_AGG[func](xs))
    return out


def same(a, b):
    """Equal values, a NaN equal to a NaN, and of the same type (so
    ``-0.0`` differs from ``0.0`` only by ``repr``)."""
    return len(a) == len(b) and all(
        type(x) is type(y) and (x != x and y != y or repr(x) == repr(y))
        for x, y in zip(a, b))


NAN = float("nan")


class TestGroups:
    @pytest.mark.parametrize("width", [1, 2])
    def test_group_members_in_first_occurrence_order(self, width):
        rng = random.Random(width)
        for n in (0, 1, 30):
            cols = random_columns(rng, n, width, 3)
            out, ngroups = k.group_aggregate(cols, n, [("count", ())])
            keys, members = ref_groups(cols, n)
            assert ngroups == len(keys)
            assert len(out) == width + 1
            assert (rows_of(out[:width]) if keys else []) == keys
            assert out[width] == list(map(len, members))

    def test_global_group_exists_iff_there_are_rows(self):
        assert k.group_aggregate([], 3, [("count", ())]) == ([[3]], 1)
        assert k.group_aggregate([], 0, [("count", ())]) == ([[]], 0)
        assert k.group_aggregate([], 2, []) == ([], 1)

    @pytest.mark.parametrize("func", ["count", "sum", "min", "max", "avg"])
    def test_numeric_aggregates(self, func):
        values = [4, 1, 7, 1, 3]
        for cols, n in (([[1, 2, 1, 2, 1]], 5), ([], 5), ([], 0)):
            _, members = ref_groups(cols, n)
            out, _ = k.group_aggregate(
                cols, n, [(func, () if func == "count" else values)])
            got = out[-1]
            assert got == [REF_AGG[func]([values[i] for i in m])
                           for m in members]
            assert [type(v) for v in got] == [
                float if func == "avg" else int] * len(members)

    @pytest.mark.parametrize("func", ["all", "any"])
    def test_boolean_aggregates(self, func):
        values = [True, False, True, True]
        out, _ = k.group_aggregate([["a", "a", "b", "b"]], 4,
                                   [(func, values)])
        assert out[-1] == [REF_AGG[func]([True, False]),
                           REF_AGG[func]([True, True])]

    @pytest.mark.parametrize("width", [0, 1, 2])
    @pytest.mark.parametrize("nan", ["none", "first", "last"])
    def test_against_the_naive_reference(self, width, nan):
        """Every aggregate of one grouping at once, over random doubles
        (a NaN at a group's first or last row, or none), against the
        loop over each group's members."""
        funcs = ["count", "sum", "min", "max", "avg"]
        rng = random.Random(width)
        for n in (0, 1, 7, 40):
            cols = random_columns(rng, n, width, 3)
            values = [float(rng.randrange(-5, 5)) for _ in range(n)]
            keys, members = ref_groups(cols, n)
            if nan != "none" and members:
                group = members[-1]
                values[group[0 if nan == "first" else -1]] = NAN
            out, ngroups = k.group_aggregate(
                cols, n, [(f, () if f == "count" else values)
                          for f in funcs])
            assert ngroups == len(keys) == len(members)
            assert (rows_of(out[:width]) if width else [()] * ngroups
                    ) == keys
            for func, got in zip(funcs, out[width:]):
                want = (list(map(len, members)) if func == "count"
                        else ref_aggregate(func, values, members))
                assert same(got, want), func

    @pytest.mark.parametrize("func", ["min", "max"])
    def test_min_max_keep_the_first_of_equal_values(self, func):
        """``0.0 == -0.0``: a group's extreme is the first of equal
        values, as Python's ``min``/``max`` pick it."""
        for values in ([0.0, -0.0], [-0.0, 0.0]):
            out, _ = k.group_aggregate([["g", "g"]], 2, [(func, values)])
            assert same(out[-1], [REF_AGG[func](values)])
