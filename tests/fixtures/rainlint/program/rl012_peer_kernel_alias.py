"""RL012 fixture: scheduling through a peer's kernel-valued attribute.

``Member.__init__`` binds ``self.kernel = host.sim`` — a legal one-hop
grab at init, and no per-file pattern can follow it afterwards, because
the attribute is not literally named ``sim``.  The whole-program pass
infers that ``kernel`` is kernel-valued and flags ``Gossiper.poke``
aliasing a *peer's* kernel into a local to schedule on it.  Exactly
one RL012 at the alias assignment.
"""


class Member:
    def __init__(self, host):
        self.kernel = host.sim


class Gossiper:
    def __init__(self, peer):
        self.peer = peer

    def poke(self):
        k = self.peer.kernel
        k.call_in(0.1, self.poke)
