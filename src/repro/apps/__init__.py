"""Proof-of-concept applications on the RAIN building blocks (Secs. 5-6).

- :mod:`repro.apps.video` — RAINVideo, the high-availability video server.
- :mod:`repro.apps.snow` — SNOW, the web cluster with token-queued HTTP.
- :mod:`repro.apps.raincheck` — distributed checkpointing with rollback.
- :mod:`repro.apps.rainwall` — the Rainwall virtual-IP firewall cluster.
- :mod:`repro.apps.workload` — synthetic workload generators.
"""

from .raincheck import JobSpec, JobStatus, RainCheckNode
from .rainwall import RainwallCluster, RainwallGateway, VipMove
from .snow import SNOW_SERVICE, SnowClient, SnowServer
from .video import PlaybackReport, VideoClient, publish_video
from .workload import FlowModel, VideoSpec, synthetic_block

__all__ = [
    "FlowModel",
    "JobSpec",
    "JobStatus",
    "PlaybackReport",
    "RainCheckNode",
    "RainwallCluster",
    "RainwallGateway",
    "SNOW_SERVICE",
    "SnowClient",
    "SnowServer",
    "VideoClient",
    "VideoSpec",
    "VipMove",
    "publish_video",
    "synthetic_block",
]
