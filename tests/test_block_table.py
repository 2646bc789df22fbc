"""Each move and each measurement outcome stacks its blocks once, into a
table that ``Branch.apply`` reads with one ``np.searchsorted``; a move
copied with ``dataclasses.replace`` shares its source's table.

The reference below is the dict path the table replaced: per call, the
keys sorted, membership from ``np.isin`` and every block stacked with the
identity. The table must give the same state bytes, also where that path
needed care: a move with no blocks, control values outside the keys,
controls mixing classical bits with simulated wires, and a batch in which
no input has a listed value.
"""

import dataclasses
import functools

import numpy as np
import pytest

from qilab import protocol as proto
from qilab import rac
from qilab import reduction as red
from qilab.rng import Stream
from qilab.suites import SuiteConfig, run_suite


def _old_apply(state, controls, targets, blocks):
    """The dict path: ``Branch.apply`` as it read ``blocks`` on every call."""
    free = [q for q in controls if q not in state.bits]
    bit = {q: np.arange(2 ** len(free)) >> (len(free) - 1 - i) & 1 for i, q in enumerate(free)}
    bit.update({q: state.bits[q][:, None] for q in controls if q in state.bits})
    value = np.zeros((len(state.vec), 1), dtype=np.int64)
    for k, q in enumerate(controls):
        value = value | bit[q] << (len(controls) - 1 - k)
    keys = np.array(sorted(blocks), dtype=np.int64)
    listed = np.isin(value, keys)
    rows = np.flatnonzero(listed.any(axis=1))
    if not rows.size:
        return state
    table = np.asarray([*(blocks[k] for k in keys.tolist()), np.eye(2 ** len(targets))])
    stack = table[np.where(listed, np.searchsorted(keys, value), len(keys))[rows]]
    vec = state.vec.copy()
    positions = state._positions(targets), state._positions(free)
    vec[rows] = proto.apply_unitary(state.vec[rows], len(state.wires), stack, *positions)
    return proto.Branch(state.bits, state.wires, vec)


def _unitaries(count, dim, seed):
    g = Stream(seed).complex_gauss_matrix(count * dim, dim).reshape(count, dim, dim)
    return [np.linalg.qr(m)[0] for m in g]


# wires 0-2 are a three-bit input "c", 3-4 a two-qubit work register "w"
LAYOUT = proto.make_layout([("c", 3, "input", "alice"), ("w", 2, "work", "alice")])


def _batch(values, amplitudes=None):
    inputs = proto.InputColumns({"c": values}, {"w": amplitudes} if amplitudes is not None else {})
    return proto.initial_states(LAYOUT, inputs)


def assert_table_matches_the_dict_path(state, controls, targets, blocks):
    table = proto.BlockTable(blocks, len(targets))
    got = state.apply(controls, targets, table)
    want = _old_apply(state, controls, targets, blocks)
    assert got.wires == want.wires and got.bits is want.bits
    assert got.vec.tobytes() == want.vec.tobytes()
    return got


def test_a_move_without_blocks_returns_the_batch_unchanged():
    state = _batch([0, 3, 5, 7], np.ones(4))
    move = proto.Move("alice", (4,), {}, controls=(0, 3), send=(4,))
    table = move.table  # only the value above every value, and the identity
    assert table.index.tolist() == [np.iinfo(np.int64).max] and table.stack.shape == (1, 2, 2)
    assert not table and move.blocks is table
    assert state.apply(move.controls, move.targets, move.table) is state
    assert proto.evolve((move,), state) is state
    assert_table_matches_the_dict_path(state, move.controls, move.targets, {})


def test_control_values_outside_the_keys_read_the_identity():
    # values 0 (below every key) and 7 (above every key) keep their rows
    state = _batch([0, 2, 3, 7, 5], np.arange(1.0, 5.0))
    blocks = dict(zip((2, 3, 5), _unitaries(3, 4, 131)))
    got = assert_table_matches_the_dict_path(state, (0, 1, 2), (3, 4), blocks)
    for row in (0, 3):
        assert got.vec[row].tobytes() == state.vec[row].tobytes()
    assert not np.array_equal(got.vec[1], state.vec[1])


def test_controls_mixing_classical_bits_and_simulated_wires():
    # two classical bits and one simulated wire: each input reads two
    # values, one per slice of wire 3, one or both of them listed
    state = _batch([0, 1, 2, 3, 4, 5, 6, 7], np.arange(1.0, 5.0))
    for keys in ((1, 2, 7), (0,), (6, 7), tuple(range(8))):
        blocks = dict(zip(keys, _unitaries(len(keys), 2, 132 + len(keys))))
        for controls in ((1, 3, 2), (3, 0, 1), (2, 3)):
            assert_table_matches_the_dict_path(state, controls, (4,), blocks)


def test_a_batch_with_no_listed_value_is_left_as_it_is():
    state = _batch([0, 1, 4, 5], np.ones(4))
    blocks = dict(zip((2, 3, 6), _unitaries(3, 4, 133)))
    assert state.apply((0, 1, 2), (3, 4), proto.BlockTable(blocks, 2)) is state
    assert_table_matches_the_dict_path(state, (0, 1, 2), (3, 4), blocks)


def test_every_move_of_the_reduction_reads_as_the_dict_path():
    fam = red.two_round_family(*red.openings(3)["parity"], 3)
    inputs = red.slice_distribution(fam, 1).inputs
    state = proto.initial_states(fam.layout, inputs)
    for move in fam.moves:
        state = assert_table_matches_the_dict_path(state, move.controls, move.targets, move.blocks)
    meas = fam.final_measurement
    for k, table in enumerate(meas.tables):
        blocks = {v: p[k] for v, p in meas.blocks.items()}
        want = _old_apply(state, meas.controls, meas.targets, blocks)
        assert state.apply(meas.controls, meas.targets, table).vec.tobytes() == want.vec.tobytes()


def test_a_table_holds_the_blocks_once_as_views_of_its_stack():
    blocks = dict(zip((5, 1, 3), _unitaries(3, 4, 134)))
    move = proto.Move("alice", (3, 4), dict(blocks), controls=(0, 1, 2))
    table = move.table
    assert move.blocks is table and move.table is table
    assert table.index.tolist() == [1, 3, 5, np.iinfo(np.int64).max]
    assert np.array_equal(table.stack[-1], np.eye(4))
    assert table.slots.tolist() == [0, 1, 2, 3]
    for k, (value, block) in enumerate(sorted(table.items())):
        assert block.base is table.stack and not block.flags.writeable
        assert block.tobytes() == blocks[value].tobytes() == table.stack[k].tobytes()
    # a copy on other wires reads the same table, stacked again nowhere
    assert dataclasses.replace(move, controls=(2, 1, 0), send=(3,)).table is table


def test_a_block_shared_by_many_values_is_stacked_once():
    # the reduction's decode move maps every value it lists to one X
    state = _batch([0, 1, 2, 3, 4, 5, 6, 7], np.arange(1.0, 5.0))
    u = _unitaries(1, 2, 135)[0]
    blocks = {1: proto.X, 2: u, 4: proto.X, 6: proto.X, 7: u}
    table = proto.BlockTable(blocks, 1)
    assert table.stack.shape == (3, 2, 2) and table.slots.tolist() == [0, 1, 0, 0, 1, 2]
    assert table[1] is table[4] is table[6] and table[2] is table[7]
    for controls in ((0, 1, 2), (1, 3, 2)):
        assert_table_matches_the_dict_path(state, controls, (4,), blocks)


@pytest.fixture
def stacked(monkeypatch):
    """Every table built, and every move and measurement whose tables were
    read, kept alive so that no id is reused; ``np.isin`` raises."""
    built, moves, measurements = [], [], []
    init, move_table = proto.BlockTable.__init__, proto.Move.table.fget
    tables = proto.Measurement.tables.func

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def reading_move(self):
        moves.append(self)
        return move_table(self)

    def reading_measurement(self):
        measurements.append(self)
        return tables(self)

    def no_isin(*args, **kwargs):
        raise AssertionError("np.isin called")

    monkeypatch.setattr(proto.BlockTable, "__init__", counting_init)
    monkeypatch.setattr(proto.Move, "table", property(reading_move))
    prop = functools.cached_property(reading_measurement)
    prop.__set_name__(proto.Measurement, "tables")
    monkeypatch.setattr(proto.Measurement, "tables", prop)
    monkeypatch.setattr(np, "isin", no_isin)
    return built, moves, measurements


def _assert_stacked_once(built, moves, measurements):
    """One table per distinct move table and per measurement outcome, each
    measurement's tables built once: no table was stacked twice."""
    assert all(isinstance(m.blocks, proto.BlockTable) for m in moves)
    move_tables = {id(m.blocks) for m in moves}
    assert len(set(map(id, measurements))) == len(measurements)
    outcomes = sum(len(next(iter(o.blocks.values()))) for o in measurements)
    assert len(built) == len(move_tables) + outcomes
    return move_tables


def test_the_reduction_suite_stacks_each_table_once(stacked):
    results = run_suite("reduction", SuiteConfig(seed=1, n=2))
    assert results
    built, moves, measurements = stacked
    move_tables = _assert_stacked_once(built, moves, measurements)
    # the rewired first move and Alice's relabelled decode share their source's table
    assert len(move_tables) < len(set(map(id, moves)))


def test_a_run_stacks_each_table_once(stacked):
    spec = rac.classical_copy_protocol(3)
    proto.run_protocol(spec, rac.index_ensemble(3))
    proto.run_protocol(spec, rac.index_ensemble(3))
    built, moves, measurements = stacked
    _assert_stacked_once(built, moves, measurements)
    # every move and the one measurement's outcomes, though the spec ran twice
    assert measurements == [spec.final_measurement]
    assert len(built) == len(spec.moves) + len(spec.final_measurement.tables)
