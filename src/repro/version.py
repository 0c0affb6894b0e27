"""Package version: the single source. ``pyproject.toml`` reads it
(``[tool.setuptools.dynamic]``), and reports, fleet checkpoints and
grid cache keys are stamped with it."""

__version__ = "1.5.0"
