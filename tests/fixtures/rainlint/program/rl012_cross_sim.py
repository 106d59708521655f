"""RL012 fixture: a clock read through a peer's literal ``.sim``.

The plainest form of the rule (the per-file RL008 it absorbed): two
hops, then ``.sim``, then a clock/queue/RNG/scheduling attribute.
``__init__``'s one-time grab and reads through the bound ``self.sim``
stay legal.  Exactly one RL012, at the reach in ``leak``.
"""


class Connection:
    def __init__(self, transport):
        self.transport = transport
        self.sim = transport.sim  # the sanctioned one-time binding

    def poke(self):
        return self.sim.now  # clean: own bound kernel

    def leak(self):
        return self.transport.sim.now  # reaches through the peer's kernel
