"""Property tests for incremental prepared-key maintenance.

The contract under test is *bit-identity*: any sequence of
append/delete/replace splices must leave the sorted structures exactly
equal — values, row ids, key, including tie order — to
``PreprocessedKey.build`` on the equivalent final key.  Values are
drawn from a small integer grid so ties are common, which is where
splice tie-handling could silently diverge from the stable sort.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.backends import ApproximateBackend
from repro.core.config import conservative
from repro.core.efficient_search import PreprocessedKey
from repro.core.incremental import (
    splice_append,
    splice_append_grow,
    splice_delete,
    splice_replace,
)
from repro.errors import InvalidInputError, ShapeError

D = 5


def _tie_heavy(rng, shape):
    """Float matrices from a coarse integer grid: ties everywhere."""
    return rng.integers(-3, 4, size=shape).astype(np.float64)


def _assert_identical(pre: PreprocessedKey, key: np.ndarray) -> None:
    fresh = PreprocessedKey.build(key)
    np.testing.assert_array_equal(pre.key, fresh.key)
    np.testing.assert_array_equal(pre.sorted_values, fresh.sorted_values)
    np.testing.assert_array_equal(pre.row_ids, fresh.row_ids)


# One mutation step is encoded as (op_code, payload_seed); the actual
# arrays/indices derive from a seeded rng so hypothesis shrinks over a
# compact space while the data stays adversarially tie-heavy.
steps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2**16)),
    min_size=1,
    max_size=8,
)


def _apply_step(rng, key, op, pre):
    """Apply one mutation to both the plain key and the spliced pre."""
    n = key.shape[0]
    if op == 0:  # append
        k = int(rng.integers(1, 4))
        rows = _tie_heavy(rng, (k, D))
        return np.concatenate([key, rows]), splice_append(pre, rows)
    if op == 1 and n > 1:  # delete
        count = int(rng.integers(1, min(n, 4)))
        rows = rng.choice(n, size=count, replace=False)
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        return key[keep], splice_delete(pre, rows)
    row = int(rng.integers(n))  # replace
    new_row = _tie_heavy(rng, D)
    out = key.copy()
    out[row] = new_row
    return out, splice_replace(pre, row, new_row)


class TestSpliceBitIdentity:
    @given(seed=st.integers(0, 2**16), mutations=steps)
    @settings(max_examples=150, deadline=None)
    def test_mutation_sequences_match_fresh_build(self, seed, mutations):
        rng = np.random.default_rng(seed)
        key = _tie_heavy(rng, (int(rng.integers(2, 12)), D))
        pre = PreprocessedKey.build(key)
        for op, payload in mutations:
            step_rng = np.random.default_rng(payload)
            key, pre = _apply_step(step_rng, key, op, pre)
            _assert_identical(pre, key)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_append_block_with_internal_ties(self, seed):
        """Equal values inside one appended block keep ascending ids."""
        rng = np.random.default_rng(seed)
        key = _tie_heavy(rng, (6, D))
        rows = np.tile(_tie_heavy(rng, (1, D)), (3, 1))  # identical rows
        _assert_identical(
            splice_append(PreprocessedKey.build(key), rows),
            np.concatenate([key, rows]),
        )

    def test_replace_with_identical_value_is_stable(self):
        rng = np.random.default_rng(0)
        key = _tie_heavy(rng, (8, D))
        pre = PreprocessedKey.build(key)
        _assert_identical(splice_replace(pre, 3, key[3].copy()), key)

    def test_empty_append_and_delete_are_noops(self):
        rng = np.random.default_rng(1)
        key = rng.normal(size=(6, D))
        pre = PreprocessedKey.build(key)
        assert splice_append(pre, np.empty((0, D))) is pre
        assert splice_delete(pre, []) is pre

    def test_validation(self):
        rng = np.random.default_rng(2)
        pre = PreprocessedKey.build(rng.normal(size=(4, D)))
        with pytest.raises(ShapeError):
            splice_append(pre, rng.normal(size=(2, D + 1)))
        with pytest.raises(ShapeError):
            splice_delete(pre, [0, 0])
        with pytest.raises(ShapeError):
            splice_delete(pre, [0, 1, 2, 3])  # would empty the key
        with pytest.raises(ShapeError):
            splice_delete(pre, [4])
        with pytest.raises(ShapeError):
            splice_replace(pre, 4, rng.normal(size=D))
        with pytest.raises(ShapeError):
            splice_replace(pre, 0, rng.normal(size=D + 1))


class TestGrowOnlyPlanes:
    """One-row appends into the caller's own plane storage shift it in
    place; the result must still equal a fresh build, bit for bit."""

    @given(
        seed=st.integers(0, 2**16), block_rows=st.sampled_from([1, 2, 3, 64])
    )
    @settings(max_examples=40, deadline=None)
    def test_in_place_shift_matches_fresh_build(self, seed, block_rows):
        """Many one-row appends cross several capacity doublings; small
        shift blocks exercise the bottom-up block order and its early
        exit."""
        rng = np.random.default_rng(seed)
        key = _tie_heavy(rng, (int(rng.integers(1, 6)), D))
        pre, buffers = PreprocessedKey.build(key), None
        shifted = 0
        with mock.patch.object(
            incremental, "_SHIFT_BLOCK_BYTES", 8 * D * block_rows
        ):
            for _ in range(int(rng.integers(12, 40))):
                rows = _tie_heavy(rng, (1, D))
                before = buffers
                pre, buffers = splice_append_grow(pre, rows, buffers)
                shifted += buffers is before
                key = np.concatenate([key, rows])
                _assert_identical(pre, key)
        assert shifted > 0

    def test_append_after_prepare_or_delete_relays(self):
        """Planes the caller does not own are never written: the first
        append re-lays them into new storage with spare rows."""
        rng = np.random.default_rng(6)
        key = rng.normal(size=(4, D))
        pre = PreprocessedKey.build(key)
        planes = (pre.sorted_values.copy(), pre.row_ids.copy())
        grown, buffers = splice_append_grow(pre, rng.normal(size=(1, D)), None)
        np.testing.assert_array_equal(pre.sorted_values, planes[0])
        np.testing.assert_array_equal(pre.row_ids, planes[1])
        assert buffers.capacity == 10 and buffers.back(grown)
        shrunk = splice_delete(grown, [0])
        _, relaid = splice_append_grow(shrunk, rng.normal(size=(1, D)), buffers)
        assert relaid is not buffers


class TestBackendMutationHooks:
    """The serve-facing hooks: mutated backend == freshly prepared one."""

    @given(seed=st.integers(0, 2**16), mutations=steps)
    @settings(max_examples=30, deadline=None)
    def test_mutated_backend_attends_bit_identically(self, seed, mutations):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        key = _tie_heavy(rng, (n, D))
        mutated = ApproximateBackend(conservative(), engine="vectorized")
        mutated.prepare(key)
        for op, payload in mutations:
            step_rng = np.random.default_rng(payload)
            n = key.shape[0]
            if op == 0:
                rows = _tie_heavy(step_rng, (int(step_rng.integers(1, 4)), D))
                mutated.append_rows(rows)
                key = np.concatenate([key, rows])
            elif op == 1 and n > 1:
                count = int(step_rng.integers(1, min(n, 4)))
                rows = step_rng.choice(n, size=count, replace=False)
                mutated.delete_rows(rows)
                keep = np.ones(n, dtype=bool)
                keep[rows] = False
                key = key[keep]
            else:
                row = int(step_rng.integers(n))
                new_row = _tie_heavy(step_rng, D)
                mutated.replace_key(row, new_row)
                key = key.copy()
                key[row] = new_row
        value = rng.normal(size=(key.shape[0], D))
        queries = rng.normal(size=(4, D))
        # The spliced prepared key is the mutated key itself.
        np.testing.assert_array_equal(
            mutated.export_artifact().view().key, key
        )
        fresh = ApproximateBackend(conservative(), engine="vectorized")
        fresh.prepare(key)
        np.testing.assert_array_equal(
            mutated.attend_many(key, value, queries),
            fresh.attend_many(key, value, queries),
        )

    def test_mutation_before_prepare_is_deferred(self):
        rng = np.random.default_rng(4)
        key = rng.normal(size=(6, D))
        backend = ApproximateBackend(conservative(), engine="vectorized")
        backend.append_rows(rng.normal(size=(2, D)))  # nothing prepared yet
        value = rng.normal(size=(6, D))
        out = backend.attend(key, value, rng.normal(size=D))
        assert out.shape == (D,)

    @pytest.mark.parametrize("grown", [False, True], ids=["prepared", "grown"])
    def test_refused_mutations_write_nothing(self, grown):
        """Every hook refuses a bad mutation before it writes — a
        negative delete index must never wrap around via numpy
        indexing, and a non-finite key entry must never reach a sorted
        column — whether the planes are freshly prepared or the
        backend's own grow-only storage (where a one-row append would
        shift them in place)."""
        rng = np.random.default_rng(5)
        key = rng.normal(size=(8, D))

        def fresh():
            backend = ApproximateBackend(conservative(), engine="vectorized")
            backend.prepare(key[:6] if grown else key)
            if grown:
                backend.append_rows(key[6:7])  # re-lays into owned storage
                backend.append_rows(key[7:])  # shifts in place
            return backend

        backend = fresh()
        nan_row = np.full(D, np.nan)
        with pytest.raises(ShapeError):
            backend.delete_rows([-1])
        with pytest.raises(ShapeError):
            backend.delete_rows([2, 2])
        with pytest.raises(ShapeError):
            backend.delete_rows(list(range(8)))
        with pytest.raises(ShapeError):
            backend.replace_key(-1, rng.normal(size=D))
        with pytest.raises(ShapeError):
            backend.replace_key(0, rng.normal(size=D + 1))
        with pytest.raises(ShapeError):
            backend.append_rows(rng.normal(size=(2, D + 1)))
        with pytest.raises(InvalidInputError):
            backend.append_rows(nan_row[np.newaxis, :])
        with pytest.raises(InvalidInputError):
            backend.append_rows(np.full((1, D), np.inf))
        with pytest.raises(InvalidInputError):
            backend.replace_key(0, nan_row)
        # Refused mutations leave the prepared state untouched.
        value = rng.normal(size=(8, D))
        queries = rng.normal(size=(2, D))
        np.testing.assert_array_equal(
            backend.attend_many(key, value, queries),
            fresh().attend_many(key, value, queries),
        )
