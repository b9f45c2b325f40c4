"""Mini-DPH: parallel arrays and the non-parametric representation."""

import pytest

from examples.comparisons import (
    FlatArray,
    NestedArray,
    TupleArray,
    add_l,
    bpermute,
    enum_from_to_p,
    from_list,
    fst_l,
    index_p,
    mul_l,
    pack_p,
    replicate_p,
    snd_l,
    sum_p,
    sum_s,
    zip_p,
)


class TestRepresentation:
    def test_flat(self):
        arr = from_list([1.0, 2.0])
        assert isinstance(arr, FlatArray)
        assert arr.to_list() == [1.0, 2.0]

    def test_tuples_become_tuple_of_arrays(self):
        # "[:(a, b):] are represented as tuples of arrays" (Section 4.2)
        arr = from_list([(1, 0.1), (3, 1.0)])
        assert isinstance(arr, TupleArray)
        assert isinstance(arr.parts[0], FlatArray)
        assert arr.parts[0].values == [1, 3]
        assert arr.to_list() == [(1, 0.1), (3, 1.0)]

    def test_nested_becomes_descriptor_plus_data(self):
        # "(offset, length) descriptors and a flat data array"
        arr = from_list([[1, 2], [], [3]])
        assert isinstance(arr, NestedArray)
        assert arr.offsets == [0, 2, 2]
        assert arr.lengths == [2, 0, 1]
        assert arr.data.to_list() == [1, 2, 3]
        assert arr.to_list() == [[1, 2], [], [3]]

    def test_tuple_arrays_check_lengths(self):
        with pytest.raises(ValueError):
            TupleArray((FlatArray([1]), FlatArray([1, 2])))

    def test_empty(self):
        assert from_list([]).to_list() == []


class TestPrimitives:
    SV = from_list([(1, 0.1), (3, 1.0), (4, 0.0)])
    V = from_list([10.0, 20.0, 30.0, 40.0, 50.0])

    def test_projections(self):
        assert fst_l(self.SV).to_list() == [1, 3, 4]
        assert snd_l(self.SV).to_list() == [0.1, 1.0, 0.0]

    def test_projections_require_tuples(self):
        with pytest.raises(TypeError):
            fst_l(self.V)

    def test_bpermute(self):
        out = bpermute(self.V, fst_l(self.SV))
        assert out.to_list() == [20.0, 40.0, 50.0]

    def test_bpermute_bounds(self):
        with pytest.raises(IndexError):
            bpermute(self.V, FlatArray([9]))

    def test_lifted_arithmetic(self):
        assert mul_l(FlatArray([1, 2]), FlatArray([3, 4])).values == [3, 8]
        assert add_l(FlatArray([1, 2]), FlatArray([3, 4])).values == [4, 6]

    def test_sum_p_and_index(self):
        assert sum_p(FlatArray([1, 2, 3])) == 6
        assert index_p(self.V, 2) == 30.0

    def test_segmented_sum(self):
        nested = from_list([[1, 2], [], [3]])
        assert sum_s(nested).values == [3, 0, 3]

    def test_zip_replicate_enum_pack(self):
        assert zip_p(FlatArray([1]), FlatArray(["a"])).to_list() == [(1, "a")]
        assert replicate_p(3, 7).values == [7, 7, 7]
        assert enum_from_to_p(2, 5).values == [2, 3, 4, 5]
        assert pack_p(FlatArray([1, 2, 3]), [True, False, True]).values == [1, 3]
