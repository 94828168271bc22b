"""The ``.rsx`` corruption matrix: every refusal path, by reason tag.

:class:`Store` must never answer from bytes it cannot vouch for.  This
suite damages a known-good store every way the format doc enumerates —
missing header, wrong magic, wrong version, unknown family, torn
writes at *every* truncation prefix, bit flips under the digest, stale
sources — and asserts each refusal carries the right machine-checkable
``reason`` tag (the same vocabulary as resilience snapshots).
"""

import numpy as np
import pytest

from repro.indexes.vptree import VPTree
from repro.metric import L2
from repro.store import (
    HEADER_BYTES,
    STORE_MAGIC,
    Store,
    StoreCorrupt,
    StoreStale,
    points_digest,
    write_store,
)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(8).random((60, 5))


@pytest.fixture(scope="module")
def good_blob(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fmt") / "good.rsx"
    write_store(VPTree(data, L2(), m=2, leaf_capacity=4, rng=1), path)
    return path.read_bytes()


def reopen(tmp_path, blob, *, verify=True, **verify_kwargs):
    path = tmp_path / "case.rsx"
    path.write_bytes(blob)
    store = Store(path)
    if verify:
        store.verify(**verify_kwargs)
    return store


def refusal(tmp_path, blob, *, verify=True, **verify_kwargs) -> str:
    with pytest.raises(StoreCorrupt) as excinfo:
        reopen(tmp_path, blob, verify=verify, **verify_kwargs)
    return excinfo.value.reason


class TestStructuralRefusals:
    def test_no_header(self, tmp_path, good_blob):
        assert refusal(tmp_path, good_blob[: HEADER_BYTES - 1]) == "no-header"

    def test_empty_file(self, tmp_path, good_blob):
        assert refusal(tmp_path, b"") == "no-header"

    def test_bad_magic(self, tmp_path, good_blob):
        blob = b"ZSX\x01" + good_blob[len(STORE_MAGIC) :]
        assert refusal(tmp_path, blob) == "bad-magic"

    def test_bad_version(self, tmp_path, good_blob):
        blob = bytearray(good_blob)
        blob[4] = 99  # version byte
        assert refusal(tmp_path, bytes(blob)) == "bad-version"

    def test_unknown_family_tag(self, tmp_path, good_blob):
        blob = bytearray(good_blob)
        blob[5] = 200  # family tag byte
        assert refusal(tmp_path, bytes(blob)) == "bad-version"

    def test_bad_header_json(self, tmp_path, good_blob):
        blob = bytearray(good_blob)
        blob[HEADER_BYTES] = 0xFF  # first metadata byte
        assert refusal(tmp_path, bytes(blob)) in (
            "bad-header-json",
            "bad-digest",
        )


class TestTruncationMatrix:
    def test_every_truncation_prefix_refused(self, tmp_path, good_blob):
        # Every prefix of the file must be refused — a torn write can
        # stop anywhere.  Sampled stride keeps the sweep fast while the
        # structural boundaries (header, meta, section edges) are all
        # crossed; the final bytes are covered one by one.
        total = len(good_blob)
        lengths = set(range(0, total, 97)) | set(range(max(0, total - 8), total))
        for length in sorted(lengths):
            blob = good_blob[:length]
            with pytest.raises(StoreCorrupt) as excinfo:
                reopen(tmp_path, blob)
            assert excinfo.value.reason in (
                "no-header",
                "bad-length",
                "bad-payload",
                "bad-digest",
            ), f"prefix {length}: unexpected tag {excinfo.value.reason}"

    def test_torn_write_midway_refused(self, tmp_path, good_blob):
        assert refusal(tmp_path, good_blob[: len(good_blob) // 2]) in (
            "bad-length",
            "bad-payload",
            "bad-digest",
        )


@pytest.fixture(scope="module")
def gnat_blob(data, tmp_path_factory):
    from repro.indexes.gnat import GNAT

    path = tmp_path_factory.mktemp("fmt-gnat") / "good.rsx"
    write_store(GNAT(data, L2(), degree=3, leaf_capacity=4, rng=2), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def ght_blob(data, tmp_path_factory):
    from repro.indexes.ghtree import GHTree

    path = tmp_path_factory.mktemp("fmt-ght") / "good.rsx"
    write_store(GHTree(data, L2(), leaf_capacity=2, rng=2), path)
    return path.read_bytes()


class TestGNATCorruptionMatrix:
    """The table families ride the same refusal matrix as the rest."""

    @pytest.fixture
    def blob(self, gnat_blob):
        return gnat_blob

    def test_good_gnat_store_verifies(self, tmp_path, blob):
        store = reopen(tmp_path, blob)
        assert store.n_objects == 60
        store.close()

    def test_every_truncation_prefix_refused(self, tmp_path, blob):
        total = len(blob)
        lengths = set(range(0, total, 97)) | set(range(max(0, total - 8), total))
        for length in sorted(lengths):
            with pytest.raises(StoreCorrupt) as excinfo:
                reopen(tmp_path, blob[:length])
            assert excinfo.value.reason in (
                "no-header",
                "bad-length",
                "bad-payload",
                "bad-digest",
            ), f"prefix {length}: unexpected tag {excinfo.value.reason}"

    def test_bit_flip_under_digest_refused(self, tmp_path, blob):
        blob = bytearray(blob)
        blob[-3] ^= 0x10
        assert refusal(tmp_path, bytes(blob)) == "bad-digest"

    def test_stale_digest(self, tmp_path, blob, data):
        changed = np.array(data)
        changed[0, 0] += 1.0
        assert refusal(tmp_path, blob, source_points=changed) == "stale-digest"


class TestGHTCorruptionMatrix(TestGNATCorruptionMatrix):
    @pytest.fixture
    def blob(self, ght_blob):
        return ght_blob

    test_good_gnat_store_verifies = None

    def test_good_ght_store_verifies(self, tmp_path, blob):
        store = reopen(tmp_path, blob)
        assert store.family == "ght"
        assert store.n_objects == 60
        store.close()


class TestDigest:
    def test_bit_flip_under_digest_refused(self, tmp_path, good_blob):
        blob = bytearray(good_blob)
        blob[-3] ^= 0x10  # deep in the last section
        assert refusal(tmp_path, bytes(blob)) == "bad-digest"

    def test_structural_open_skips_digest(self, tmp_path, good_blob):
        # Store() alone runs structural checks only: a bit flip in the
        # payload is caught by verify(), not by open.
        blob = bytearray(good_blob)
        blob[-3] ^= 0x10
        store = reopen(tmp_path, bytes(blob), verify=False)
        store.close()

    def test_good_store_verifies(self, tmp_path, good_blob):
        store = reopen(tmp_path, good_blob)
        assert store.n_objects == 60
        store.close()


class TestStaleness:
    def test_stale_digest(self, tmp_path, good_blob, data):
        changed = np.array(data)
        changed[0, 0] += 1.0
        reason = refusal(tmp_path, good_blob, source_points=changed)
        assert reason == "stale-digest"

    def test_matching_source_accepted(self, tmp_path, good_blob, data):
        store = reopen(tmp_path, good_blob, source_points=data)
        store.close()

    def test_stale_mtime(self, tmp_path, data):
        path = tmp_path / "mtime.rsx"
        write_store(
            VPTree(data, L2(), m=2, leaf_capacity=4, rng=1),
            path,
            source_mtime=100.0,
        )
        store = Store(path)
        with pytest.raises(StoreStale) as excinfo:
            store.verify(source_mtime=200.0)
        assert excinfo.value.reason == "stale-mtime"
        store.close()

    def test_stale_is_corrupt_subclass(self):
        assert issubclass(StoreStale, StoreCorrupt)

    def test_points_digest_is_order_sensitive(self, data):
        assert points_digest(data) != points_digest(data[::-1])
