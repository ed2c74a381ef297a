"""The array float formatter against repr, and the trajectory writer built
on it against the json module."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import random_state
from geoschro import serialize
from geoschro.dynamics import (
    CoefficientFn,
    IntegratorSpec,
    TDepHamiltonian,
    TrajectoryRecord,
    propagate,
)
from geoschro.errors import NumericError
from geoschro.floatrepr import join_reprs
from geoschro.hilbert import BasisSpec, coherent_state
from geoschro.operators import build_named
from geoschro.serialize import write_trajectory_jsonl


def assert_reprs(values):
    """join_reprs writes every value as repr does, 4096 to a call."""
    x = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, x.size, 4096):
        chunk = x[start:start + 4096]
        got = join_reprs(chunk[None, :])[0]
        want = ",".join(map(repr, chunk.tolist()))
        if got != want:
            wrong = [(w, g) for w, g in zip(want.split(","), got.split(",")) if w != g]
            pytest.fail(f"repr vs join_reprs: {wrong[:5]}")


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(18).integers(0, 2 ** 64, size=1_001_000, dtype=np.uint64)
        x = bits.view(np.float64)
        x = x[np.isfinite(x)][:1_000_000]
        assert x.size == 1_000_000
        assert_reprs(x)

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        x = _neighbours(np.concatenate([twos, tens]))
        x = x[np.isfinite(x)]
        assert_reprs(np.concatenate([x, -x]))

    def test_first_subnormals(self):
        assert_reprs(np.arange(1, 200_001, dtype=np.uint64).view(np.float64))

    def test_edges(self):
        big = np.finfo(np.float64).max
        ints = np.concatenate([np.arange(-100, 101) + 2.0 ** 52, np.arange(-100, 101) + 2.0 ** 53])
        layout = _neighbours([1e15, 1e16, 1e-4, 1e-5])
        x = np.concatenate([[0.0, -0.0, big, -big], ints, layout])
        assert_reprs(np.concatenate([x, -x]))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_any_finite_floats(self, values):
        assert join_reprs(np.array([values])) == [",".join(map(repr, values))]

    def test_rows_are_joined_separately(self):
        x = np.random.default_rng(3).standard_normal((5, 7)) * 10.0 ** np.arange(-14, 21, 5)
        assert join_reprs(x) == [",".join(map(repr, row)) for row in x.tolist()]
        assert join_reprs(x[:, :1]) == [repr(v) for v in x[:, 0].tolist()]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(NumericError, match="^non-finite number in output"):
            join_reprs(np.array([[0.5, bad, 1.0]]))


def _records(count, size, seed=0):
    return [TrajectoryRecord(0.1 * i, 1.0 - 1e-16 * i, -0.25 * i, 0.5 + i,
                             random_state(size, seed + i)) for i in range(count)]


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trajectory_jsonl(fh, records, True)


def _oscillator(size):
    x2, p2 = (build_named(name, BasisSpec.hermite(size)) for name in ("x2", "p2"))
    return TDepHamiltonian(((CoefficientFn.constant(0.5), p2, "kinetic"),
                            (CoefficientFn.constant(0.5), x2, "potential")))


class TestTrajectoryWriter:
    BATCH = serialize._BATCH_FLOATS // 128

    @pytest.mark.parametrize("count,size", [(1, 128), (BATCH - 1, 128), (BATCH, 128),
                                            (BATCH + 1, 128), (3, 1)])
    def test_bytes_match_the_json_oracle(self, tmp_path, count, size):
        records = _records(count, size)
        _write_jsonl(tmp_path / "t.jsonl", records)
        assert (tmp_path / "t.jsonl").read_bytes() == \
            oracles.trajectory_jsonl(records).encode("utf-8")

    def test_nan_written_into_a_built_state_raises(self, tmp_path):
        records = _records(3, 8)
        records[2].state.coefficients[5] = complex(0.0, math.nan)
        with pytest.raises(NumericError, match="^non-finite number in output"):
            _write_jsonl(tmp_path / "t.jsonl", records)

    def test_coefficient_dump_records_allocate_little(self, tmp_path):
        """exact_eig at N=128, 2,001 records at stride 1: the json route
        peaked at about 0.05 MB traced here, and the batched formatter at
        about 1.6 MB; nothing holds the whole trajectory's text."""
        records = propagate(_oscillator(128), coherent_state(0.5 + 0.3j, 128),
                            IntegratorSpec("exact_eig", 5e-3), 0.0, 10.0)
        assert len(records) == 2001
        _write_jsonl(tmp_path / "warm.jsonl", records[:1])  # builds the tables
        with open(tmp_path / "t.jsonl", "w", encoding="utf-8", newline="\n") as fh:
            tracemalloc.start()
            try:
                write_trajectory_jsonl(fh, records, True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 2_000_000
