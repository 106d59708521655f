"""Shadowed-module fixture, first of a pair: an RL009 chain.

Both files of the pair are ``conftest.py`` in directories that are not
packages, so both map to the module name ``conftest``.  The index must
key them apart; if the second replaced the first, the whole-program
rules would never see this handler reach the wall clock.
"""

import time


class ProbeNode:
    def on_probe(self, msg):
        return self._stamp(msg)

    def _stamp(self, msg):
        return (time.time(), msg)  # rainlint: disable=RL001 -- fixture: sink hidden from the per-file pass
