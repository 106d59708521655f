"""Shadowed-module fixture, second of a pair: the same module name and
the same class and handler names as the first, but clean."""


class ProbeNode:
    def on_probe(self, msg):
        return self._stamp(msg)

    def _stamp(self, msg):
        return (0.0, msg)
