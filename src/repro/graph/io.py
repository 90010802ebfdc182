"""Graph persistence: text edge lists and binary CSR files.

Binary CSR uses ``numpy``'s ``.npz`` container so a saved graph round-trips
bit-exactly; edge lists use the common whitespace-separated format of SNAP
datasets (``# comment`` lines allowed), matching how the paper's datasets are
distributed.
"""

from __future__ import annotations

import os
import tokenize
import zipfile
import zlib
from typing import Optional, Union

import numpy as np

from repro.graph.builders import from_edges, preprocess_edges
from repro.graph.csr import CSRGraph

PathLike = Union[str, "os.PathLike[str]"]

#: What reading a damaged ``.npz`` raises: zipfile and zlib on the archive
#: (``RuntimeError`` for a flipped encryption or compression-method flag),
#: numpy's ``.npy`` header parser (tokenize / ``literal_eval``) on a member,
#: and ``CSRGraph`` on arrays that do not form a CSR graph.
_CORRUPT_FILE_ERRORS = (
    ValueError,
    EOFError,
    OSError,
    RuntimeError,
    SyntaxError,
    tokenize.TokenError,
    zipfile.BadZipFile,
    zlib.error,
)


def save_edge_list(graph: CSRGraph, path: PathLike, header: bool = True) -> None:
    """Write the graph as a ``source target [weight]`` text file."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(
                f"# repro edge list |V|={graph.num_vertices} "
                f"|E|={graph.num_edges}\n"
            )
        degrees = graph.degrees()
        sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
        if graph.weights is None:
            for s, t in zip(sources, graph.targets):
                handle.write(f"{s} {t}\n")
        else:
            for s, t, w in zip(sources, graph.targets, graph.weights):
                handle.write(f"{s} {t} {w:.17g}\n")


def load_edge_list(
    path: PathLike,
    undirected: bool = False,
    preprocess: bool = False,
    name: str = "",
) -> CSRGraph:
    """Load a whitespace-separated edge list.

    ``preprocess=True`` applies the paper's pipeline (undirect, dedup, drop
    self loops and zero-degree vertices); otherwise edges are used verbatim.
    """
    sources, targets, weights = [], [], []
    weighted: Optional[bool] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            if weighted is None:
                weighted = len(parts) >= 3
            sources.append(int(parts[0]))
            targets.append(int(parts[1]))
            if weighted:
                weights.append(float(parts[2]) if len(parts) >= 3 else 1.0)
    edges = np.stack(
        [
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        ],
        axis=1,
    ) if sources else np.empty((0, 2), dtype=np.int64)
    if preprocess:
        cleaned, n, __ = preprocess_edges(edges, undirected=True)
        return from_edges(cleaned, num_vertices=n, name=name)
    if undirected and edges.size:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        if weighted:
            weights = weights + weights
    return from_edges(
        edges,
        weights=np.asarray(weights) if weighted and weights else None,
        name=name,
    )


def save_csr(graph: CSRGraph, path: PathLike) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file.

    Like :func:`numpy.savez_compressed`, ``.npz`` is appended to a path
    without it.  The file is written beside the target and renamed over
    it, so a reader never sees a partly written graph.
    """
    payload = {
        "offsets": graph.offsets,
        "targets": graph.targets,
        "name": np.asarray(graph.name),
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):  # only when the write or rename failed
            os.remove(partial)


def load_csr(path: PathLike) -> CSRGraph:
    """Load a graph saved by :func:`save_csr`.

    A file that is not a readable CSR archive (truncated, not an ``.npz``,
    missing ``offsets`` / ``targets``, or with invalid CSR arrays) raises
    :class:`ValueError` naming ``path``.
    """
    with open(path, "rb") as handle:
        try:
            # np.load's own zip test; anything else it would try to unpickle.
            if handle.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise ValueError("not an .npz archive")
            handle.seek(0)
            with np.load(handle, allow_pickle=False) as data:
                missing = [k for k in ("offsets", "targets") if k not in data.files]
                if missing:
                    raise ValueError(f"no {' or '.join(missing)} array")
                weights = data["weights"] if "weights" in data.files else None
                name = str(data["name"]) if "name" in data.files else ""
                return CSRGraph(data["offsets"], data["targets"], weights, name=name)
        except _CORRUPT_FILE_ERRORS as exc:
            raise ValueError(
                f"{os.fspath(path)}: not a valid CSR graph file: {exc!s:.200}"
            ) from exc
