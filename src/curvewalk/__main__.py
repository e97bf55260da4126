"""``python -m curvewalk``: the command-line interface."""

from .cli import entrypoint

entrypoint()
