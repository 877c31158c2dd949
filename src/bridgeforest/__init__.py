"""bridgeforest: exact combinatorics of unlabeled trees, labeled forests,
bridge-addable classes, and max-weight tree partition functions.

The modules are imported on use (`from bridgeforest import forestlab`), so
a CLI command loads only the ones it runs."""

from functools import cache

__version__ = "0.1.0"


class CapacityError(RuntimeError):
    """Requested size exceeds the configured exhaustive-mode bound."""


@cache
def labeled_tree_count(n: int) -> int:
    """Cayley's n^(n-2) labeled trees on n vertices."""
    return 1 if n == 1 else n ** (n - 2)
