"""The persistence primitive: one encoding, one crc, one atomic publish."""

import binascii
import json
import os

import pytest

from repro.persist import (
    atomic_write,
    canonical_json,
    crc32_hex,
    seal,
    unseal,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")

NESTED = {
    "z": [1, 2.5, -0.0, 1e-300, 3.141592653589793, None, True],
    "a": {"café": "naïve ☃", "b": {"y": [], "x": {}}},
    "m": float("inf"),
    "n": "\u0000\n\t\"",
}


def test_canonical_json_is_the_historic_encoding():
    expected = json.dumps(NESTED, sort_keys=True, separators=(",", ":"))
    assert canonical_json(NESTED) == expected
    for value in (0.1 + 0.2, "ü", [1, [2, [3]]], None, {}):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))


def test_crc32_hex_matches_binascii():
    for text in ("", "abc", "naïve ☃", canonical_json(NESTED)):
        expected = "{:08x}".format(
            binascii.crc32(text.encode("utf-8")) & 0xFFFFFFFF)
        assert crc32_hex(text) == expected
        assert len(crc32_hex(text)) == 8


def test_seal_is_canonical_json_with_a_body_crc():
    payload = {"schema": 1, "seq": 3, "state": NESTED}
    text = seal(payload, "state")
    assert text == canonical_json(dict(
        payload, crc=crc32_hex(canonical_json(NESTED))))
    assert unseal(text, "state") == dict(
        payload, crc=crc32_hex(canonical_json(NESTED)))
    assert payload == {"schema": 1, "seq": 3, "state": NESTED}


def test_unseal_rejects_a_flipped_byte():
    text = seal({"version": "1", "summary": {"count": 12345}}, "summary")
    flipped = text.replace("12345", "12355")
    json.loads(flipped)  # still valid JSON: only the crc can tell
    with pytest.raises(ValueError):
        unseal(flipped, "summary")
    for bad in ("[1, 2]", "{}", '{"summary": 1}', "{not json"):
        with pytest.raises(ValueError):
            unseal(bad, "summary")


def test_atomic_write_publishes_with_the_plain_open_mode(tmp_path):
    plain = str(tmp_path / "plain.json")
    with open(plain, "w") as handle:
        handle.write("x")
    path = str(tmp_path / "entry.json")
    atomic_write(path, "first")
    atomic_write(path, "second")
    with open(path) as handle:
        assert handle.read() == "second"
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(str(tmp_path))) == ["entry.json", "plain.json"]


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    path = str(tmp_path / "entry.json")
    atomic_write(path, "old")

    def fail(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError):
        atomic_write(path, "new")
    with open(path) as handle:
        assert handle.read() == "old"
    assert os.listdir(str(tmp_path)) == ["entry.json"]


def test_persistence_format_lives_only_in_persist():
    """The encoding, crc and publish decisions stay behind one module."""
    banned = ("os.replace(", "NamedTemporaryFile", "binascii.crc32",
              'separators=(",", ":")')
    own = os.path.join(SRC, "persist.py")
    offenders = []
    for root, __, names in os.walk(SRC):
        for name in names:
            path = os.path.join(root, name)
            if not name.endswith(".py") or path == own:
                continue
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            offenders.extend("{}: {}".format(os.path.relpath(path, SRC), word)
                             for word in banned if word in text)
    assert offenders == []
