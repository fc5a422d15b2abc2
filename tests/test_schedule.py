"""Unit tests for Schedule / FlowSchedule invariants and cost math."""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import collectives, topology
from repro.core import TecclConfig
from repro.core.epochs import build_epoch_plan
from repro.core.lp import solve_lp
from repro.core.postprocess import prune_fractional
from repro.core.schedule import (FlowArrays, FlowSchedule, Schedule, Send,
                                 distinct)
from repro.errors import ModelError, ScheduleError
from repro.topology import line


def send(epoch, src, dst, source=0, chunk=0):
    return Send(epoch=epoch, source=source, chunk=chunk, src=src, dst=dst)


class TestSend:
    def test_ordering_by_epoch(self):
        assert send(0, 0, 1) < send(1, 0, 1)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ScheduleError):
            send(-1, 0, 1)

    def test_accessors(self):
        s = send(2, 3, 4, source=1, chunk=5)
        assert s.commodity == (1, 5)
        assert s.link == (3, 4)


class TestSchedule:
    def test_beyond_horizon_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(sends=[send(5, 0, 1)], tau=1.0, chunk_bytes=1.0,
                     num_epochs=3)

    def test_parameter_validation(self):
        with pytest.raises(ScheduleError):
            Schedule(sends=[], tau=0.0, chunk_bytes=1.0, num_epochs=1)
        with pytest.raises(ScheduleError):
            Schedule(sends=[], tau=1.0, chunk_bytes=0.0, num_epochs=1)

    def test_finish_epoch(self):
        sched = Schedule(sends=[send(0, 0, 1), send(3, 1, 2)], tau=1.0,
                         chunk_bytes=1.0, num_epochs=5)
        assert sched.finish_epoch == 3
        assert Schedule(sends=[], tau=1.0, chunk_bytes=1.0,
                        num_epochs=1).finish_epoch == -1

    def test_finish_time_alpha_beta(self):
        topo = line(3, capacity=2.0, alpha=0.5)
        sched = Schedule(sends=[send(1, 0, 1)], tau=1.0, chunk_bytes=4.0,
                         num_epochs=3)
        # 1 * tau + 4/2 + 0.5
        assert sched.finish_time(topo) == pytest.approx(3.5)

    def test_groupings(self):
        sends = [send(0, 0, 1), send(0, 1, 2), send(1, 0, 1)]
        sched = Schedule(sends=sends, tau=1.0, chunk_bytes=1.0, num_epochs=3)
        assert len(sched.sends_by_epoch()[0]) == 2
        assert len(sched.sends_on_link(0, 1)) == 2
        assert sched.links_used() == {(0, 1), (1, 2)}

    def test_total_bytes(self):
        sched = Schedule(sends=[send(0, 0, 1)] * 1, tau=1.0,
                         chunk_bytes=7.0, num_epochs=1)
        assert sched.total_bytes() == pytest.approx(7.0)

    def test_shift_and_merge(self):
        a = Schedule(sends=[send(0, 0, 1)], tau=1.0, chunk_bytes=1.0,
                     num_epochs=2)
        b = a.shifted(3)
        assert b.sends[0].epoch == 3
        merged = a.merged_with(b)
        assert merged.num_sends == 2
        assert merged.num_epochs == 5

    def test_merge_rejects_mismatched(self):
        a = Schedule(sends=[], tau=1.0, chunk_bytes=1.0, num_epochs=1)
        b = Schedule(sends=[], tau=2.0, chunk_bytes=1.0, num_epochs=1)
        with pytest.raises(ScheduleError):
            a.merged_with(b)

    def test_shift_rejects_negative(self):
        a = Schedule(sends=[], tau=1.0, chunk_bytes=1.0, num_epochs=1)
        with pytest.raises(ScheduleError):
            a.shifted(-1)


class TestFlowSchedule:
    def test_tolerance_filter(self):
        fs = FlowSchedule(flows={(0, 0, 1, 0): 1e-12, (0, 0, 1, 1): 0.5},
                          reads={(0, 1, 1): 0.5}, tau=1.0, chunk_bytes=1.0,
                          num_epochs=3)
        assert len(fs.flows) == 1

    def test_finish_epoch(self):
        fs = FlowSchedule(flows={(0, 0, 1, 2): 1.0}, reads={(0, 1, 3): 1.0},
                          tau=1.0, chunk_bytes=1.0, num_epochs=5)
        assert fs.finish_epoch == 3

    def test_link_load_sums_commodities(self):
        fs = FlowSchedule(flows={(0, 0, 1, 0): 0.5, (1, 0, 1, 0): 0.25},
                          reads={}, tau=1.0, chunk_bytes=1.0, num_epochs=2)
        assert fs.link_load(0, 1, 0) == pytest.approx(0.75)

    def test_links_used_are_the_flow_links(self):
        flows = {(0, 0, 1, 0): 0.5, (1, 0, 1, 1): 0.25, ((2, 0), 7, 3, 0): 1.0,
                 (0, 2**31 - 1, 0, 1): 1.0, (1, 1, 2, 0): 1e-12}
        fs = FlowSchedule(flows=flows, reads={}, tau=1.0, chunk_bytes=1.0,
                          num_epochs=2)
        assert fs.links_used() == {(0, 1), (7, 3), (2**31 - 1, 0)}
        empty = FlowSchedule(flows={}, reads={}, tau=1.0, chunk_bytes=1.0,
                             num_epochs=1)
        assert empty.links_used() == set()

    def test_finish_time_serialises_link_load(self):
        topo = line(3, capacity=2.0, alpha=0.0)
        fs = FlowSchedule(flows={(0, 0, 1, 0): 0.5, (1, 0, 1, 0): 0.5},
                          reads={}, tau=1.0, chunk_bytes=4.0, num_epochs=2)
        # both half-chunks share epoch 0: 0 + (1.0 * 4)/2 = 2.0
        assert fs.finish_time(topo) == pytest.approx(2.0)

    def test_delivered(self):
        fs = FlowSchedule(flows={}, reads={(0, 1, 0): 0.5, (0, 1, 2): 0.5},
                          tau=1.0, chunk_bytes=1.0, num_epochs=3)
        assert fs.delivered(0, 1) == pytest.approx(1.0)

    def test_total_bytes(self):
        fs = FlowSchedule(flows={(0, 0, 1, 0): 1.5}, reads={}, tau=1.0,
                          chunk_bytes=2.0, num_epochs=1)
        assert fs.total_bytes() == pytest.approx(3.0)


def assert_same_view(view, fresh):
    """Two :class:`FlowArrays` hold the same columns, dtypes included."""
    assert view.commodities == fresh.commodities
    assert view.epochs == fresh.epochs
    for field in dataclasses.fields(FlowArrays)[2:]:
        held, built = getattr(view, field.name), getattr(fresh, field.name)
        assert held.dtype == built.dtype, field.name
        assert np.array_equal(held, built), field.name


class TestReadOnlyFlowSchedule:
    """A served flow schedule is shared by every cache hit and holds its
    column view, so nothing may change it after construction."""

    @staticmethod
    def _flow():
        return FlowSchedule(flows={(0, 0, 1, 0): 1.0, (2, 1, 2, 1): 0.5},
                            reads={(0, 1, 0): 1.0, (2, 2, 1): 0.5},
                            tau=1.0, chunk_bytes=1.0, num_epochs=3)

    @pytest.mark.parametrize("name", ["flows", "reads"])
    def test_writing_an_entry_raises(self, name):
        fs = self._flow()
        entries = getattr(fs, name)
        key = next(iter(entries))
        with pytest.raises(TypeError):
            entries[key] = 2.0
        with pytest.raises(TypeError):
            del entries[key]
        assert not hasattr(entries, "update") and not hasattr(entries, "pop")

    @pytest.mark.parametrize("name", ["flows", "reads", "tau",
                                      "num_epochs"])
    def test_reassigning_a_field_raises(self, name):
        fs = self._flow()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fs, name, getattr(fs, name))

    def test_the_callers_dict_is_copied(self):
        flows = {(0, 0, 1, 0): 1.0}
        fs = FlowSchedule(flows=flows, reads={}, tau=1.0, chunk_bytes=1.0,
                          num_epochs=2)
        flows[(0, 0, 1, 1)] = 1.0
        assert list(fs.flows) == [(0, 0, 1, 0)]

    def test_view_is_held_and_read_only(self):
        fs = self._flow()
        assert fs.arrays is fs.arrays
        assert_same_view(fs.arrays, FlowArrays.of(fs))
        with pytest.raises(ValueError):
            fs.arrays.flow_amount[0] = 0.0

    def test_pickle_and_copy_round_trip(self):
        fs = self._flow()
        fs.arrays  # a held view does not travel; the copy builds its own
        for back in (pickle.loads(pickle.dumps(fs)), copy.deepcopy(fs),
                     dataclasses.replace(fs)):
            assert back == fs
            assert list(back.flows.items()) == list(fs.flows.items())
            assert_same_view(back.arrays, fs.arrays)

    def test_relabel_and_round_trip_carry_fresh_views(self):
        fs = self._flow()
        fs.arrays
        for out in (fs.relabel((2, 0, 1)),
                    FlowSchedule.from_dict(json.loads(json.dumps(
                        fs.to_dict())))):
            assert_same_view(out.arrays, FlowArrays.of(out))

    def test_prune_output_carries_a_fresh_view(self):
        topo = topology.ring(4, capacity=1.0)
        config = TecclConfig(chunk_bytes=1.0)
        out = solve_lp(topo, collectives.alltoall(topo.gpus, 1), config)
        raw = FlowSchedule(flows=dict(out.schedule.flows),
                           reads=dict(out.schedule.reads), tau=1.0,
                           chunk_bytes=1.0, num_epochs=out.plan.num_epochs)
        raw.arrays
        pruned = prune_fractional(raw, topo, build_epoch_plan(
            topo, config, out.plan.num_epochs))
        assert_same_view(pruned.arrays, FlowArrays.of(pruned))
        assert_same_view(out.schedule.arrays, FlowArrays.of(out.schedule))


class TestFlowScheduleFromDict:
    """A corrupted document must not parse into a different schedule than
    the one stored: duplicate rows (last-wins) and non-finite amounts (a
    ``NaN`` the tolerance filter would silently drop) are rejected."""

    @staticmethod
    def _doc(**rows):
        fs = FlowSchedule(flows={((0, 1), 0, 1, 0): 1.0,
                                 ((1, 0), 1, 2, 1): 0.5},
                          reads={((0, 1), 1, 0): 1.0, ((1, 0), 2, 2): 0.5},
                          tau=1.0, chunk_bytes=1.0, num_epochs=4)
        doc = fs.to_dict()
        doc.update(rows)
        return doc

    def test_round_trip(self):
        doc = self._doc()
        assert FlowSchedule.from_dict(doc).to_dict() == doc

    def test_duplicate_flows_row_rejected(self):
        doc = self._doc()
        doc["flows"].append([[0, 1], 0, 1, 0, 0.25])
        with pytest.raises(ModelError, match="duplicate flows row"):
            FlowSchedule.from_dict(doc)

    def test_duplicate_reads_row_rejected(self):
        doc = self._doc()
        doc["reads"].append([[1, 0], 2, 2, 0.25])
        with pytest.raises(ModelError, match="duplicate reads row"):
            FlowSchedule.from_dict(doc)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_flow_rejected(self, amount):
        doc = self._doc()
        doc["flows"][0][-1] = amount
        with pytest.raises(ModelError, match="not finite"):
            FlowSchedule.from_dict(doc)

    def test_non_finite_read_rejected(self):
        doc = self._doc()
        doc["reads"][1][-1] = float("nan")
        with pytest.raises(ModelError, match="not finite"):
            FlowSchedule.from_dict(doc)

    def test_mixed_commodity_keys_round_trip(self):
        # aggregated source ids beside (source, chunk) pairs: int-keyed
        # rows sort first, and the document parses back to the schedule
        fs = FlowSchedule(flows={((1, 0), 1, 2, 1): 0.5, (0, 0, 1, 0): 1.0,
                                 ((0, 1), 0, 1, 2): 0.25, (2, 2, 0, 1): 0.75},
                          reads={((1, 0), 2, 2): 0.5, (0, 1, 1): 1.0,
                                 (2, 0, 2): 0.75},
                          tau=1.0, chunk_bytes=1.0, num_epochs=4)
        doc = fs.to_dict()
        assert [row[0] for row in doc["flows"]] == [0, 2, [0, 1], [1, 0]]
        assert [row[0] for row in doc["reads"]] == [0, 2, [1, 0]]
        back = FlowSchedule.from_dict(json.loads(json.dumps(doc)))
        assert back.flows == fs.flows and back.reads == fs.reads
        assert back.to_dict() == doc

    @pytest.mark.parametrize("keyed", [lambda s: s, lambda s: (s, 0)])
    def test_one_keying_serializes_as_plain_sorted_rows(self, keyed):
        # cache payloads and fleet fingerprints hash these bytes
        flows = {(keyed(s), i, j, k): 0.5 + s
                 for s, i, j, k in [(2, 1, 0, 3), (0, 0, 1, 0), (1, 2, 1, 1),
                                    (0, 1, 2, 1)]}
        reads = {(keyed(s), d, k): 1.0 for s, d, k in [(2, 0, 4), (0, 2, 2)]}
        fs = FlowSchedule(flows=flows, reads=reads, tau=1.0,
                          chunk_bytes=1.0, num_epochs=6)

        def row(q, *rest):
            return [list(q) if isinstance(q, tuple) else q, *rest]

        plain = {"flows": sorted(row(q, i, j, k, v)
                                 for (q, i, j, k), v in flows.items()),
                 "reads": sorted(row(q, d, k, v)
                                 for (q, d, k), v in reads.items())}
        doc = fs.to_dict()
        assert json.dumps(doc["flows"]) == json.dumps(plain["flows"])
        assert json.dumps(doc["reads"]) == json.dumps(plain["reads"])

    def test_malformed_row_still_a_schedule_error(self):
        doc = self._doc()
        doc["flows"].append([0, 1, 2])
        with pytest.raises(ScheduleError, match="malformed"):
            FlowSchedule.from_dict(doc)


class TestDistinct:
    """``distinct`` is ``np.unique(code, return_inverse=True)``."""

    @pytest.mark.parametrize("code", [
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, -3, dtype=np.int64),
        np.array([5, 1, 5, 2, 1, 9], dtype=np.int64),
        np.random.default_rng(0).integers(-2**40, 2**40, 500),
        np.random.default_rng(1).integers(0, 30, 4000),
    ], ids=["empty", "single", "all-equal", "small", "wide-random",
            "dense-random"])
    def test_matches_np_unique(self, code):
        values, inverse = distinct(code)
        want_values, want_inverse = np.unique(code, return_inverse=True)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(inverse, want_inverse)
        np.testing.assert_array_equal(values[inverse], code)
