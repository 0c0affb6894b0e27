"""The package version is declared once, in ``repro.version``."""

import os
import re

from repro.version import __version__

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def _table(text, name):
    """The lines of one top-level TOML table, header excluded."""
    lines = []
    inside = False
    for line in text.splitlines():
        if line.startswith("["):
            inside = line.strip() == "[{}]".format(name)
            continue
        if inside:
            lines.append(line)
    return lines


def test_pyproject_reads_the_version_from_the_package():
    with open(PYPROJECT) as handle:
        text = handle.read()
    project = _table(text, "project")
    assert not [line for line in project
                if re.match(r"\s*version\s*=", line)]
    assert any(re.match(r'\s*dynamic\s*=.*"version"', line)
               for line in project)
    dynamic = _table(text, "tool.setuptools.dynamic")
    assert any("repro.version.__version__" in line for line in dynamic)


def test_version_is_a_dotted_triple():
    assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)
