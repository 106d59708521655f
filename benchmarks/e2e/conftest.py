"""Puts the benchmark's own package (and ``src``) on ``sys.path`` for its tests.

Run them with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1's
``testpaths`` stays ``tests``, so the repository's own gate does not collect
this directory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
