"""Out-of-memory walk index management (paper §III-B / §III-C).

The walk index (``current_vertex``, ``walked_steps``, and optional
application state such as ``walk_id``) moves in *batches* of at most B
walks; all walks in a batch currently stay in the same graph partition, so
a batch can always be fully updated given that one partition.  A batch is
a plain :class:`WalkArrays`: its boundaries are kept because each batch is
one host↔device transfer.  A host pool holds everything as a deque of
batches per partition, whose tail is the append-only *write frontier*; a
device pool caches at most ``m_w`` walks in one struct-of-arrays arena,
a segment per partition.
"""

from repro.walks.state import WalkArrays
from repro.walks.pool import HostWalkPool, DeviceWalkPool
from repro.walks.reshuffle import (
    group_by_partition,
    TwoLevelReshuffler,
    DirectWriteReshuffler,
)

__all__ = [
    "WalkArrays",
    "HostWalkPool",
    "DeviceWalkPool",
    "group_by_partition",
    "TwoLevelReshuffler",
    "DirectWriteReshuffler",
]
