"""Byte-level fuzzing of the IDX reader, the one binary reader.

Each test writes a valid file, truncates it, XORs some of its bytes or
rewrites a header field, and reads it back. The only allowed outcomes are a
successful load or an ``EmgdError``; any other exception (a traceback at the
CLI) fails the test.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emgd.errors import EmgdError, FormatError
from emgd.streams import load_idx

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def corruptions(draw, size: int):
    """A cut length (keep the whole file when ``None``) and (offset, xor) flips."""
    cut = draw(st.none() | st.integers(0, size - 1))
    flips = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                          max_size=8))
    return cut, flips


def corrupt(raw: bytes, corruption) -> bytes:
    cut, flips = corruption
    out = bytearray(raw)
    for offset, xor in flips:
        out[offset] ^= xor
    return bytes(out if cut is None else out[:cut])


def load_or_emgd_error(load, *paths) -> None:
    try:
        load(*paths)
    except EmgdError:
        pass


def idx_bytes(count: int) -> tuple:
    images = struct.pack(">IIII", 0x803, count, 2, 2) + bytes(range(4 * count))
    labels = struct.pack(">II", 0x801, count) + bytes(range(count))
    return images, labels


class TestIdxFuzz:
    @FUZZ
    @given(count=st.sampled_from([0, 3]), which=st.sampled_from([0, 1]), data=st.data())
    def test_truncated_or_flipped(self, tmp_path, count, which, data):
        files = list(idx_bytes(count))
        files[which] = corrupt(files[which], data.draw(corruptions(len(files[which]))))
        paths = [tmp_path / "images.idx", tmp_path / "labels.idx"]
        for path, raw in zip(paths, files):
            path.write_bytes(raw)
        load_or_emgd_error(load_idx, *paths)

    @FUZZ
    @given(count=st.sampled_from([0, 3]), field=st.sampled_from(["count", "rows", "cols", "labels"]),
           value=st.integers(0, 8) | st.integers(0, 2**32 - 1))
    def test_header_edit(self, tmp_path, count, field, value):
        images, labels = (bytearray(raw) for raw in idx_bytes(count))
        raw = labels if field == "labels" else images
        offset = {"count": 4, "rows": 8, "cols": 12, "labels": 4}[field]
        raw[offset:offset + 4] = struct.pack(">I", value)
        paths = [tmp_path / "images.idx", tmp_path / "labels.idx"]
        for path, data in zip(paths, (images, labels)):
            path.write_bytes(data)
        try:
            inputs, read_labels = load_idx(*paths)
        except EmgdError:
            return
        # an accepted file is exactly its header's size
        count, rows, cols = struct.unpack(">III", images[4:16])
        (label_count,) = struct.unpack(">I", labels[4:8])
        assert len(images) == 16 + count * rows * cols and inputs.shape == (count, rows * cols)
        assert len(labels) == 8 + label_count and read_labels.shape == (label_count,)

    def test_empty_file_with_huge_rows(self, tmp_path):
        _, labels = idx_bytes(0)
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1))
        (tmp_path / "labels.idx").write_bytes(labels)
        with pytest.raises(FormatError, match=r"too large \(at byte offset 8\)$"):
            load_idx(tmp_path / "images.idx", tmp_path / "labels.idx")
