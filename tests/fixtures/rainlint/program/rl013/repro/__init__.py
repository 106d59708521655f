"""RL013 fixture package: the library whose defs the rule checks."""

from .api import only_reexported, serve

__all__ = ["only_reexported", "serve"]
