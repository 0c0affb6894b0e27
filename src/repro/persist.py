"""How state reaches disk: canonical JSON, crc seals, atomic files.

Callers own *what* they persist; this module owns *how* (the
``IStorage`` layering of SNIPPETS.md snippet 1). Every fingerprint,
cache key, crc and golden covers :func:`canonical_json`; every
artifact is published by :func:`atomic_write`; and every artifact
trusted on load is a :func:`seal` envelope (canonical JSON whose
``crc`` covers one body field) checked by :func:`unseal`, e.g.
``{"crc":"1a2b3c4d","schema":1,"seq":12,"state":{...}}``. Stdlib only.
"""

import binascii
import json
import os

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def canonical_json(obj):
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``."""
    return _ENCODER.encode(obj)


def crc32_hex(text):
    """crc32 of ``text`` (UTF-8), as 8 lowercase hex digits."""
    return "{:08x}".format(binascii.crc32(text.encode("utf-8")) & 0xFFFFFFFF)


def atomic_write(path, text):
    """Publish ``text`` at ``path`` via a fsynced ``.tmp`` sibling and a
    rename; on any failure the temp file is removed, ``path`` is left
    as it was, and the error is re-raised."""
    tmp = "{}.{}.tmp".format(path, os.getpid())
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def seal(payload, body):
    """``canonical_json`` of the string-keyed ``payload`` plus a ``crc``
    over ``payload[body]``, whose text is encoded once and spliced in."""
    body_text = canonical_json(payload[body])
    fields = dict(payload, crc=crc32_hex(body_text))
    return "{" + ",".join(
        canonical_json(key) + ":"
        + (body_text if key == body else canonical_json(fields[key]))
        for key in sorted(fields)) + "}"


def unseal(text, body):
    """The payload dict of a :func:`seal` text, or ``ValueError``.

    Parsed once, member by member; the crc is checked over the body's
    bytes as stored, which in sealed text are its canonical JSON.
    """
    payload, spans, end, opener = {}, {}, 0, "{"
    try:
        while text[end] == opener:
            opener = ","
            key, colon = _DECODER.raw_decode(text, end + 1)
            if not isinstance(key, str) or text[colon] != ":":
                break
            payload[key], end = _DECODER.raw_decode(text, colon + 1)
            spans[key] = (colon + 1, end)
    except IndexError:
        pass
    if text[end:] != "}" or body not in spans:
        raise ValueError("not a sealed payload")
    if payload.get("crc") != crc32_hex(text[slice(*spans[body])]):
        raise ValueError("crc mismatch in the {!r} seal".format(body))
    return payload
