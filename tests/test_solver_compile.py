"""Property tests for the array construction path and the compile layer.

Edge cases the COO buffers must handle: duplicate ``(row, col)`` entries
(sum), entry-less rows (all-zero rows with bounds), constant-only
objectives, and the index-range guard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.solver import Model, Sense, SolveStatus, VarType


class TestCooSemantics:
    def test_duplicate_coo_entries_sum(self):
        m = Model(sense=Sense.MAXIMIZE)
        idx = m.add_var_array(2, ub=10.0)
        m.add_constr_coo(rows=[0, 0, 0], cols=[idx[0], idx[0], idx[1]],
                         data=[1.0, 2.0, 1.0], lb=-np.inf, ub=6.0)
        m.set_objective_array(idx, [1.0, 1.0])
        compiled = m.compile()
        assert compiled.A.toarray().tolist() == [[3.0, 1.0]]
        assert compiled.A.nnz == 2
        # max x + y  s.t. 3x + y <= 6, x, y <= 10  ->  x = 0, y = 6
        assert m.solve().objective == pytest.approx(6.0)

    def test_duplicates_cancelling_to_zero(self):
        """+c and −c on the same cell vanish from the canonical form."""
        m = Model()
        idx = m.add_var_array(1, ub=1.0)
        m.add_constr_coo(rows=[0, 0], cols=[idx[0], idx[0]],
                         data=[1.0, -1.0], lb=0.0, ub=0.0)
        shape, indptr, indices, data = m.compile().canonical()[:4]
        assert shape == (1, 1)
        assert indptr.tolist() == [0, 0]
        assert len(indices) == len(data) == 0

    def test_entry_less_row_is_an_all_zero_row(self):
        m = Model()
        m.add_var_array(1)
        m.add_constr_coo(rows=[], cols=[], data=[], lb=0.0, ub=0.0,
                         num_rows=1)
        assert m.num_constraints == 1
        compiled = m.compile()
        assert compiled.A.shape == (1, 1) and compiled.A.nnz == 0
        assert compiled.row_lower.tolist() == compiled.row_upper.tolist() \
            == [0.0]
        assert m.solve().status is SolveStatus.OPTIMAL

    def test_constant_only_objective(self):
        m = Model()
        m.add_var_array(1, ub=2.0)
        m.set_objective_array([], [], const=5.0)
        compiled = m.compile()
        assert compiled.c.tolist() == [0.0] and compiled.obj_const == 5.0
        assert m.solve().objective == pytest.approx(5.0)

    def test_objective_array_duplicates_sum(self):
        m = Model(sense=Sense.MAXIMIZE)
        idx = m.add_var_array(1, ub=3.0)
        m.set_objective_array([idx[0], idx[0]], [1.0, 1.0])
        assert m.compile().c.tolist() == [2.0]
        assert m.solve().objective == pytest.approx(6.0)

    def test_bulk_binary_bounds_clamped(self):
        m = Model()
        m.add_var_array(2, lb=-5.0, ub=7.0, vtype=VarType.BINARY)
        compiled = m.compile()
        assert np.array_equal(compiled.col_lower, [0.0, 0.0])
        assert np.array_equal(compiled.col_upper, [1.0, 1.0])
        assert np.array_equal(compiled.integrality, [1, 1])

    def test_bulk_shape_and_bad_bounds(self):
        m = Model()
        grid = m.add_var_array((2, 3))
        assert grid.shape == (2, 3)
        assert m.num_vars == 6
        with pytest.raises(ModelError):
            m.add_var_array(2, lb=2.0, ub=1.0)
        assert m.num_vars == 6

    def test_coo_validation(self):
        m = Model()
        idx = m.add_var_array(2)
        with pytest.raises(ModelError):  # column beyond this model's vars
            m.add_constr_coo([0], [5], [1.0], lb=0.0, ub=0.0)
        with pytest.raises(ModelError):  # row beyond the block
            m.add_constr_coo([3], [idx[0]], [1.0], lb=0.0, ub=0.0,
                             num_rows=2)
        with pytest.raises(ModelError):  # crossed bounds
            m.add_constr_coo([0], [idx[0]], [1.0], lb=1.0, ub=0.0)
        with pytest.raises(ModelError):  # ragged triplets
            m.add_constr_coo([0, 0], [idx[0]], [1.0], lb=0.0, ub=0.0)
        assert m.num_constraints == 0

    def test_interleaved_blocks_keep_row_order(self):
        """Row blocks stack in call order, each after every earlier row."""
        m = Model()
        idx = m.add_var_array(2, ub=4.0)
        assert m.add_constr_coo([0], [idx[0]], [1.0], -np.inf, 1.0) == 0
        assert m.add_constr_coo([1, 0], [idx[1], idx[0]], [1.0, 1.0],
                                -np.inf, [2.0, 3.0]) == 1
        assert m.add_constr_coo([0], [idx[0]], [1.0], 0.5, np.inf) == 3
        compiled = m.compile()
        assert compiled.row_upper.tolist() == [1.0, 2.0, 3.0, np.inf]
        assert compiled.A.toarray().tolist() == [
            [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3),
                              st.floats(-3, 3, allow_nan=False)),
                    min_size=0, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_random_coo_blocks_match_dense_accumulation(self, entries):
        """Any duplicate-laden COO block compiles to its dense sum."""
        m = Model()
        idx = m.add_var_array(4, ub=9.0)
        rows = [r for r, _c, _v in entries]
        cols = [idx[c] for _r, c, _v in entries]
        data = [v for _r, _c, v in entries]
        m.add_constr_coo(rows, cols, data, lb=-np.inf, ub=1.0, num_rows=5)
        dense = np.zeros((5, 4))
        np.add.at(dense, (np.asarray(rows, dtype=int),
                          np.asarray(cols, dtype=int)), data)
        assert np.allclose(m.compile().A.toarray(), dense, atol=1e-12)


class TestCompileCache:
    def test_repeated_solves_reuse_stack(self):
        m = Model(sense=Sense.MAXIMIZE)
        idx = m.add_var_array(3, ub=1.0)
        m.add_constr_coo([0, 0], idx[:2], [1.0, 1.0], lb=-np.inf, ub=1.5)
        m.set_objective_array(idx, [1.0, 1.0, 1.0])
        first = m.compile()
        second = m.compile()
        assert first.A is second.A  # cached stack, not a re-build
        assert m.solve().status is SolveStatus.OPTIMAL

    def test_cache_invalidated_by_new_rows(self):
        m = Model()
        idx = m.add_var_array(2, ub=1.0)
        m.add_constr_coo([0], [idx[0]], [1.0], lb=-np.inf, ub=1.0)
        first = m.compile()
        m.add_constr_coo([0], [idx[1]], [1.0], lb=-np.inf, ub=1.0)
        second = m.compile()
        assert second.A.shape[0] == first.A.shape[0] + 1

    def test_cache_invalidated_by_new_vars(self):
        m = Model()
        idx = m.add_var_array(1, ub=1.0)
        m.add_constr_coo([0], [idx[0]], [1.0], lb=-np.inf, ub=1.0)
        assert m.compile().A.shape == (1, 1)
        m.add_var_array(1)
        assert m.compile().A.shape == (1, 2)

    def test_objective_change_does_not_restack(self):
        m = Model()
        idx = m.add_var_array(2, ub=1.0)
        m.add_constr_coo([0], [idx[0]], [1.0], lb=-np.inf, ub=1.0)
        first = m.compile()
        m.set_objective_array(idx, [1.0, 2.0])
        second = m.compile()
        assert first.A is second.A
        assert not np.array_equal(first.c, second.c)


class TestOwnership:
    """Columns are plain indices: what is left of ownership is the range
    check at every entry point that takes them."""

    def test_out_of_range_index_still_rejected(self):
        m = Model()
        m.add_var_array(1)
        for bad in (1, 5, -1):
            with pytest.raises(ModelError):
                m.add_constr_coo([0], [bad], [1.0], -np.inf, 1.0)
            with pytest.raises(ModelError):
                m.set_objective_array([bad], [1.0])
            with pytest.raises(ModelError):
                m.set_var_bounds([bad], ub=1.0)
