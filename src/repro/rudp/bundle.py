"""Bundled-interface path selection.

RAIN nodes have multiple NICs ("bundled interfaces", Sec. 1.2) cabled to
different switches.  A :class:`PathBundle` owns the set of physical
paths to one peer, consults the per-path consistent-history monitors,
and picks the path for each outgoing segment:

- ``failover`` policy — always the first Up path (stable path choice,
  predictable ordering);
- ``stripe`` policy — round-robin over all Up paths (the paper's
  "provides increased network bandwidth by utilizing the redundant
  hardware").

When every path is marked Down the bundle still returns a path (the
first), because the monitors might lag reality and RUDP's retransmission
makes optimistic sends free — matching the paper's RUDP, which "must
wait for the problem to be resolved" rather than erroring.  Until some
monitor has heard the peer, though, Down says nothing about the cables:
a connection opens on first use, so the peer starts its monitors only
once a first segment reaches it.  Such a bundle tries its paths in turn
(failover policy), and a first segment gets through on any path that
works.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..channel import LinkMonitorService, PathMonitor

__all__ = ["PathBundle", "Path", "UNPINNED"]

#: A physical path: (local NIC index, remote NIC index).  Either side may
#: be None, meaning "let the network pick any usable NIC" — used for
#: topologies where the right interface depends on the destination (e.g.
#: direct-cabled meshes).  Unpinned paths cannot be monitored.
Path = tuple[Optional[int], Optional[int]]

#: The fully unpinned path.
UNPINNED: Path = (None, None)


class PathBundle:
    """Path selector over the bundled interfaces toward one peer."""

    def __init__(
        self,
        peer: str,
        paths: Sequence[Path],
        monitors: Optional[LinkMonitorService] = None,
        policy: str = "failover",
        on_switch: Optional[Callable[[Path, Path], None]] = None,
    ):
        if not paths:
            raise ValueError("a bundle needs at least one path")
        if policy not in ("failover", "stripe"):
            raise ValueError(f"unknown bundle policy {policy!r}")
        self.peer = peer
        self.paths = list(paths)
        self.policy = policy
        self.monitors = monitors
        self.on_switch = on_switch
        self._rr = 0
        self._last_pick: Optional[Path] = None
        self._watchers: list[Optional[PathMonitor]] = []
        for local_if, remote_if in self.paths:
            if monitors is not None and local_if is not None and remote_if is not None:
                self._watchers.append(monitors.watch(peer, local_if, remote_if))
            else:
                self._watchers.append(None)

    def up_paths(self) -> list[Path]:
        """Paths whose monitor currently reports Up (all, if unmonitored)."""
        out = []
        for path, mon in zip(self.paths, self._watchers):
            if mon is None or mon.is_up:
                out.append(path)
        return out

    def pick(self) -> Path:
        """Choose the path for the next segment, per policy."""
        if self.policy == "failover":
            # The first Up path, else the first: no candidate list.
            for path, mon in zip(self.paths, self._watchers):
                if mon is None or mon.is_up:
                    break
            else:
                if not any(mon.last_heard is not None for mon in self._watchers):
                    # first contact: probe the next path, report no switch
                    self._rr += 1
                    return self.paths[self._rr % len(self.paths)]
                path = self.paths[0]
            # A change of the stable path is a failover (or a fail-back);
            # striping rotates by design, so only failover reports it.
            if self._last_pick is not None and path != self._last_pick:
                if self.on_switch is not None:
                    self.on_switch(self._last_pick, path)
            self._last_pick = path
            return path
        candidates = self.up_paths() or self.paths
        path = candidates[self._rr % len(candidates)]
        self._rr += 1
        return path

    def __repr__(self) -> str:
        return (
            f"<PathBundle to {self.peer} policy={self.policy} "
            f"{len(self.up_paths())}/{len(self.paths)} up>"
        )
