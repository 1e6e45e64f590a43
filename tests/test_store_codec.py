"""The artifact store's object format (repro.pipeline.store).

One object is one blob: magic, a length/CRC prefix, a JSON header and a
single zlib body.  These properties pin the round trip and the
corruption tolerance the executor relies on: any damage reads as a
miss and removes the file.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.pipeline import ArtifactStore
from repro.pipeline.store import OBJECT_SUFFIX, pack_object, unpack_object

from test_pipeline import small_context

DTYPES = st.sampled_from([np.bool_, np.uint8, np.int64, np.float64])
ARRAYS = hnp.arrays(
    dtype=DTYPES,
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
OBJECTS = st.tuples(st.dictionaries(st.text(max_size=8), ARRAYS, max_size=5), JSON)

DIGEST = "ab" * 32


class PassThrough:
    """A node whose decoded value is the raw ``(arrays, meta)`` pair."""

    @staticmethod
    def decode(arrays, meta):
        return arrays, meta


def stored(tmp_path, blob):
    store = ArtifactStore(tmp_path)
    path = store.object_path(DIGEST)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return store, path


@given(OBJECTS)
def test_roundtrip_exact(obj):
    arrays, meta = obj
    back, back_meta = unpack_object(pack_object(arrays, meta))
    assert back_meta == meta
    assert list(back) == list(arrays)
    for name, array in arrays.items():
        decoded = back[name]
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()
        assert decoded.flags.writeable and decoded.flags.aligned


def test_non_contiguous_input_stored_by_value():
    arrays = {"strided": np.arange(20)[::3], "fortran": np.asfortranarray(np.eye(3))}
    back, _ = unpack_object(pack_object(arrays, {}))
    for name, array in arrays.items():
        assert np.array_equal(back[name], array)


def test_object_dtype_refused():
    with pytest.raises(TypeError):
        pack_object({"bad": np.array([object()])}, {})


def test_get_roundtrips_through_the_store(tmp_path):
    arrays = {"pcs": np.arange(5, dtype=np.int64), "flag": np.array(True)}
    store, _ = stored(tmp_path, pack_object(arrays, {"name": "x"}))
    back, meta = store.get(DIGEST, PassThrough())
    assert meta == {"name": "x"}
    assert np.array_equal(back["pcs"], arrays["pcs"]) and back["flag"].shape == ()


class TestDamageReadsAsMiss:
    BLOB = pack_object(
        {"a": np.arange(40, dtype=np.int64), "b": np.ones((3, 2), dtype=np.bool_)},
        {"names": ["t0", "t1"], "total": 7},
    )

    def test_every_truncation(self, tmp_path):
        for length in range(len(self.BLOB)):
            store, path = stored(tmp_path, self.BLOB[:length])
            assert store.get(DIGEST, PassThrough()) is None, length
            assert not path.exists()

    def test_trailing_garbage(self, tmp_path):
        store, path = stored(tmp_path, self.BLOB + b"\0")
        assert store.get(DIGEST, PassThrough()) is None
        assert not path.exists()

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_any_byte_flip(self, tmp_path, data):
        index = data.draw(st.integers(0, len(self.BLOB) - 1))
        mask = data.draw(st.integers(1, 255))
        damaged = bytearray(self.BLOB)
        damaged[index] ^= mask
        store, path = stored(tmp_path, bytes(damaged))
        assert store.get(DIGEST, PassThrough()) is None
        assert not path.exists()


class TestLegacyLayout:
    def test_npz_object_is_a_miss_and_swept(self, tmp_path):
        context = small_context(tmp_path)
        digest = context.pipeline.plan(["traces"]).digest_of("traces")
        objects = tmp_path / "objects"
        objects.mkdir(parents=True)
        legacy = objects / f"{digest}.npz"
        with open(legacy, "wb") as fh:  # the layout older stores wrote
            np.savez_compressed(fh, __meta__=json.dumps({"names": []}))

        assert not context.pipeline.plan(["traces"]).nodes["traces"].cached
        traces = context.pipeline.value("traces")
        assert traces and context.store.object_path(digest).exists()

        live = context.pipeline.planner.live_digests(context.store)
        assert digest in live
        size = legacy.stat().st_size
        assert context.store.gc(live) == (1, size)
        assert not legacy.exists()  # swept although its digest is live
        assert context.store.object_path(digest).name == f"{digest}{OBJECT_SUFFIX}"
        assert small_context(tmp_path).pipeline.plan(["traces"]).nodes["traces"].cached
