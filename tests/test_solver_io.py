"""Tests for LP-format model export."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.solver import Model, Sense, VarType
from repro.solver.io import lp_statistics, save_lp, write_lp


@pytest.fixture
def toy_model():
    """max x0 + 3 x1 + x2 over x0 <= 4, binary x1, integer 1 <= x2 <= 5:
    x0 + 2 x1 <= 6,  x0 - x2 >= -1,  x1 + x2 == 3."""
    m = Model("toy[0,1]", sense=Sense.MAXIMIZE)
    (x,) = m.add_var_array(1, ub=4.0)
    (y,) = m.add_var_array(1, vtype=VarType.BINARY)
    (z,) = m.add_var_array(1, vtype=VarType.INTEGER, lb=1.0, ub=5.0)
    m.add_constr_coo([0, 0, 1, 1, 2, 2], [x, y, x, z, y, z],
                     [1.0, 2.0, 1.0, -1.0, 1.0, 1.0],
                     [-np.inf, -1.0, 3.0], [6.0, np.inf, 3.0])
    m.set_objective_array([x, y, z], [1.0, 3.0, 1.0])
    return m


class TestWriteLp:
    def test_structure(self, toy_model):
        text = write_lp(toy_model)
        stats = lp_statistics(text)
        assert stats["sense"] == "maximize"
        assert stats["num_constraints"] == 3
        assert stats["num_binaries"] == 1
        assert stats["num_generals"] == 1

    def test_names_sanitised(self, toy_model):
        """Identifiers are ``x<col>`` / ``c<row>``: nothing LP-unsafe."""
        body = write_lp(toy_model).split("\n", 1)[1]  # skip the comment line
        assert "[" not in body and "(" not in body
        assert " obj: 1 x0 + 3 x1 + 1 x2" in body
        assert " c1: 1 x0 - 1 x2 >= -1" in body

    def test_relations_rendered(self, toy_model):
        text = write_lp(toy_model)
        assert "<= 6" in text
        assert ">= -1" in text
        assert "= 3" in text

    def test_bounds_section(self, toy_model):
        text = write_lp(toy_model)
        assert "0 <= x0 <= 4" in text
        assert "1 <= x2 <= 5" in text
        assert "<= x1 <=" not in text  # binaries are implied 0/1

    def test_minimise_header(self):
        m = Model("min")
        m.set_objective_array(m.add_var_array(1), [1.0])
        assert "Minimize" in write_lp(m)

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            write_lp(Model("empty"))

    def test_save_to_file(self, toy_model, tmp_path):
        path = tmp_path / "model.lp"
        save_lp(toy_model, path)
        assert lp_statistics(path.read_text())["num_constraints"] == 3

    def test_teccl_model_exports(self, ring4):
        from repro import collectives
        from repro.core import TecclConfig
        from repro.core.epochs import build_epoch_plan
        from repro.core.milp import MilpBuilder

        demand = collectives.allgather(ring4.gpus, 1)
        cfg = TecclConfig(chunk_bytes=1.0, num_epochs=6)
        plan = build_epoch_plan(ring4, cfg, 6)
        problem = MilpBuilder(ring4, demand, cfg, plan).build()
        stats = lp_statistics(write_lp(problem.model))
        assert stats["num_constraints"] == problem.model.num_constraints
        # a binary fixed by its bounds (initial holders) is stated as a
        # general integer with those bounds
        assert stats["num_binaries"] + stats["num_generals"] \
            == problem.model.num_integer_vars
        assert stats["num_binaries"] > stats["num_generals"] > 0


class TestLpStatistics:
    def test_garbage_rejected(self):
        with pytest.raises(ModelError):
            lp_statistics("hello world")

    def test_missing_sense_rejected(self):
        with pytest.raises(ModelError):
            lp_statistics("Subject To\n c0: x <= 1\nEnd")
