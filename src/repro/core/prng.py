"""Counter-based per-walk random numbers (scheduling-independent replay).

With a shared sequential RNG, walk trajectories depend on the *order*
batches happen to be processed — toggling preemptive scheduling or the
copy mode changes every outcome.  GPU random walk systems instead derive
each walk's randomness from ``(seed, walk_id, step)`` with a counter-based
generator (Philox-style), so any schedule produces identical trajectories.

:class:`CounterRNG` reproduces that contract in NumPy: the kernel loop sets
the per-call context (the walk ids and step counts of the lanes about to
step), and each subsequent draw mixes ``(seed, walk_id, step,
draw_index)`` through a splitmix64-style hash.  It exposes the small
``Generator`` surface the algorithms use (``random`` and ``integers``), so
``EngineConfig(rng_mode="counter")`` drops in without touching algorithm
code.

Draw ``d`` of walk ``w`` at step ``s`` is ``splitmix64(key)`` with::

    key = (seed + splitmix64(w)) + splitmix64(s + salt) + d * gamma  (mod 2**64)

and each term is computed where it changes: the *lane key* ``seed +
splitmix64(w)`` is constant for a walk's life, so each RNG keeps a per-run
table of them indexed by walk id, and the kernel loop gathers its lanes'
keys once per kernel (:meth:`CounterRNG.lane_keys`) and carries them with
the lanes; the step hash is read from a module table grown on demand; the
draw offset is a Python integer.  A context is ``lane key + step hash``,
built once per round, and a draw is one in-place splitmix64 over a copy of
it.  ``random((k, n))`` is a *draw block*: draws ``d .. d + k - 1`` of
every lane in one splitmix64 pass, row ``j`` equal to the ``j``-th of
``k`` consecutive ``random(n)`` calls (a NumPy ``Generator`` fills that
shape row-major, so it is the same stream there too); a step that needs
k uniforms per lane draws one block.  A one-lane context is a Python
integer and its draws are hashed in Python integers: at one element every
NumPy call costs more than the whole hash.  The path follows the lane
count, so single-walk steps (served queries) take it and large kernels
never do.

Initialization draws (start-vertex selection) happen before any walk
context exists and run once in a fixed order, so they fall back to an
ordinary seeded ``Generator``.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional, Union

import numpy as np

#: Path suffix identifying this module to the ``rng-factory`` lint rule
#: (the one file allowed to touch ``np.random`` directly).
FACTORY_MODULE_SUFFIX = "core/prng.py"

#: splitmix64 constants, as Python integers and as ``uint64``.
_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
#: The 53-bit mantissa scale of :func:`_unit_floats`.
_UNIT = 2.0 ** -53
#: Added to a walk's step before hashing, so step ``s`` and walk id ``s``
#: hash differently.
_STEP_SALT = 0x632BE59BD9B4E019
#: Walk ids from here on are hashed per kernel instead of kept in a
#: :class:`CounterRNG`'s lane-key table (which would then pass 32 MiB).
_LANE_TABLE_LIMIT = 1 << 22


def derive_seed(seed: Optional[int], stream: str) -> int:
    """Derive a named sub-stream's seed from a base seed, deterministically.

    Mixing ``crc32(stream)`` into the base seed through splitmix64 gives
    every ``(seed, stream)`` pair an independent, reproducible generator
    seed: the same pair always derives the same value, different stream
    names decorrelate even for adjacent base seeds (where ``seed + k``
    schemes collide).
    """
    base = np.uint64((seed or 0) & _SEED_MASK)
    tag = np.uint64(zlib.crc32(stream.encode("utf-8")))
    with np.errstate(over="ignore"):
        mixed = splitmix64(
            np.asarray([base + tag * _GAMMA], dtype=np.uint64)
        )
    return int(mixed[0])


def seeded_rng(
    seed: Optional[int] = None, stream: Optional[str] = None
) -> np.random.Generator:
    """The repo's single RNG factory (lint rule ``rng-factory``).

    Every ``numpy`` generator in ``src/repro`` is built here so runs stay
    deterministic and auditable.  ``stream=None`` returns exactly
    ``default_rng(seed)`` — bit-identical to the historical direct call
    sites, which keeps engine goldens and cross-baseline start-vertex
    alignment (every system seeded with ``cfg.seed`` draws the same
    stream).  A named ``stream`` derives an independent sub-stream via
    :func:`derive_seed`.
    """
    if stream is None:
        return np.random.default_rng(seed)
    return np.random.default_rng(derive_seed(seed, stream))


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 -> well-mixed uint64)."""
    x = np.asarray(x).astype(np.uint64)
    x += _GAMMA
    _finalize(x, np.empty_like(x))
    return x


def _finalize(x: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64's mixing rounds, in place on uint64 ``x``.

    Array arithmetic wraps modulo 2**64 without overflow checks, so no
    ``errstate`` is needed; ``scratch`` holds the shifted copies.
    """
    np.right_shift(x, 30, out=scratch)
    x ^= scratch
    x *= _MIX1
    np.right_shift(x, 27, out=scratch)
    x ^= scratch
    x *= _MIX2
    np.right_shift(x, 31, out=scratch)
    x ^= scratch


def _unit_floats(x: np.ndarray) -> np.ndarray:
    """53-bit mantissa conversion of uint64 ``x`` to [0, 1), same as numpy's.

    After the shift every value fits 53 bits, so the int64 view converts
    exactly, and faster than uint64 does.
    """
    x >>= 11
    out = x.view(np.int64).astype(np.float64)
    out *= _UNIT
    return out


def _mix(x: int) -> int:
    """:func:`_finalize` on one Python integer in ``[0, 2**64)``."""
    x = ((x ^ (x >> 30)) * _MIX1_INT) & _SEED_MASK
    x = ((x ^ (x >> 27)) * _MIX2_INT) & _SEED_MASK
    return x ^ (x >> 31)


#: ``splitmix64(s + _STEP_SALT)`` for steps ``0 .. size - 1``; see
#: :func:`_step_hashes`.
_step_table = splitmix64(
    np.arange(128, dtype=np.uint64) + np.uint64(_STEP_SALT)
)


def _step_hashes(steps: np.ndarray) -> np.ndarray:
    """``splitmix64(step + salt)`` per lane, gathered from the step table.

    The table caches a pure function of the step, so every RNG of the
    process shares it.  It doubles until it covers the largest step asked
    for: 8 bytes per step any walk has reached.  Steps are gathered as
    ``intp``: an ``int32`` index array takes NumPy's slow fancy-indexing
    path (about 3x the cast plus gather).
    """
    global _step_table
    index = steps.astype(np.intp, copy=False)
    try:
        return _step_table[index]
    except IndexError:
        size = _step_table.size
        while size <= int(index.max()):
            size *= 2
        _step_table = splitmix64(
            np.arange(size, dtype=np.uint64) + np.uint64(_STEP_SALT)
        )
        return _step_table[index]


def _step_hash(step: int) -> int:
    """:func:`_step_hashes` of one step, as a Python integer."""
    try:
        return int(_step_table[step])
    except IndexError:
        return int(_step_hashes(np.array([step]))[0])


class CounterRNG:
    """Per-walk counter-based RNG with a ``Generator``-compatible surface.

    Draws require a context (set by the kernel loop); every draw within one
    context must cover *all* context lanes (``size == len(ids)``), which is
    how the vectorized algorithms already behave.  Subset draws (e.g.
    node2vec's rejection rounds) are unsupported — the engine rejects
    ``rng_mode="counter"`` for such algorithms up front.
    """

    def __init__(self, seed: Optional[int]) -> None:
        self.seed = np.uint64((seed or 0) & _SEED_MASK)
        #: ``lane key + step hash`` per context lane; a Python int for one.
        self._context: Union[None, int, np.ndarray] = None
        self._lanes = 0
        self._draw = 0
        self._init_rng = np.random.default_rng(seed)
        #: lane key of walk id ``i`` at index ``i``; see :meth:`_cover`.
        self._keys = np.empty(0, dtype=np.uint64)

    # ------------------------------------------------------------------
    def lane_keys(self, ids: np.ndarray) -> np.ndarray:
        """``seed + splitmix64(id)`` per walk: its key for life.

        One gather from the lane-key table.  A negative id or one past the
        table goes to :meth:`_cover`, which raises ``ValueError`` for it or
        makes the table cover it.
        """
        ids = np.asarray(ids, dtype=np.int64)
        # One reduction checks both ends: as uint64 a negative id is huge.
        if ids.size and ids.view(np.uint64).max() >= self._keys.size:
            return self._cover(ids)
        return self._keys.take(ids)

    def _cover(self, ids: np.ndarray) -> np.ndarray:
        """Lane keys of ``ids``, some of them past the table.

        The table is rebuilt to cover the largest id, at least doubling:
        8 bytes per walk id when the first call holds the run's largest
        (an engine run's first kernel usually does), and O(log ids)
        rebuilds whatever the order.  Ids of ``_LANE_TABLE_LIMIT`` and
        above are hashed per call instead.
        """
        low, top = int(ids.min()), int(ids.max())
        if low < 0:
            raise ValueError(f"negative walk id {low} has no lane key")
        if top >= _LANE_TABLE_LIMIT:
            keys = splitmix64(ids)
            keys += self.seed
            return keys
        size = min(max(top + 1, 2 * self._keys.size), _LANE_TABLE_LIMIT)
        keys = splitmix64(np.arange(size, dtype=np.uint64))
        keys += self.seed
        self._keys = keys
        return keys.take(ids)

    def set_context(
        self,
        ids: np.ndarray,
        steps: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> None:
        """Bind the walk lanes about to step (kernel loop hook).

        ``keys`` is ``lane_keys(ids)`` when the caller carries it already.
        A one-lane context is kept as a Python integer and hashed in Python
        integers: at one element a NumPy call costs more than the hash.
        """
        if keys is None:
            keys = self.lane_keys(ids)
        if keys.size == 1:
            key = int(keys[0]) + _step_hash(int(steps[0]))
            self._context = key & _SEED_MASK
            self._lanes = 1
        else:
            self._context = keys + _step_hashes(steps)
            self._lanes = keys.size
        self._draw = 0

    def _rows(self, size: Any, blocks: bool) -> Optional[int]:
        """Draws per lane that ``size`` asks for: ``None`` for a flat ``n``
        or ``(n,)`` (one draw), ``k`` for a ``(k, n)`` block if ``blocks``.
        ``n`` must be the context's lane count."""
        lanes = self._lanes
        if size == lanes:
            return None
        shape = tuple(size) if isinstance(size, (tuple, list)) else (size,)
        if shape and shape[-1] == lanes:
            if len(shape) == 1:
                return None
            if len(shape) == 2 and blocks and shape[0] >= 0:
                return int(shape[0])
        raise ValueError(
            f"counter draws must cover all {lanes} context lanes, "
            f"got size={size!r}"
        )

    def _uint64(self, rows: Optional[int]) -> Any:
        """The next draw of every lane (``rows`` is ``None``: a flat array)
        or the next ``rows`` draws (a ``(rows, n)`` block), advancing the
        draw offset past them; for a one-lane context a list of Python
        integers, one per draw."""
        context = self._context
        if context is None:
            raise RuntimeError("CounterRNG draw without walk context")
        draw = self._draw
        self._draw = draw + (1 if rows is None else rows)
        # splitmix64's leading ``+ gamma`` folds into the draw offset.
        offsets = [
            ((d + 1) * _GAMMA_INT) & _SEED_MASK for d in range(draw, self._draw)
        ]
        if isinstance(context, int):
            return [_mix((context + off) & _SEED_MASK) for off in offsets]
        if rows is None:
            x = context + np.uint64(offsets[0])
        else:
            x = context + np.array(offsets, dtype=np.uint64)[:, None]
        _finalize(x, np.empty_like(x))
        return x

    # ------------------------------------------------------------------
    # Generator-compatible surface
    # ------------------------------------------------------------------
    def random(self, size: Any) -> np.ndarray:
        """Uniform floats in [0, 1): one per context lane for ``n`` or
        ``(n,)``; for ``(k, n)``, row ``j`` is what the ``j``-th of ``k``
        consecutive ``random(n)`` calls would return, all hashed in one
        pass."""
        if self._context is None:
            return self._init_rng.random(size)
        rows = self._rows(size, blocks=True)
        raw = self._uint64(rows)
        if isinstance(raw, list):
            out = np.array([(x >> 11) * _UNIT for x in raw])
            return out if rows is None else out.reshape(rows, 1)
        return _unit_floats(raw)

    def integers(
        self,
        low: Any,
        high: Any = None,
        size: Any = None,
        dtype: Any = np.int64,
    ) -> np.ndarray:
        """Uniform integers, one per context lane (or init fallback)."""
        if self._context is None:
            return self._init_rng.integers(low, high, size=size, dtype=dtype)
        if high is None:
            low, high = 0, low
        if size is None:
            raise ValueError("size is required for counter draws")
        span = int(high) - int(low)
        if span <= 0:
            raise ValueError("high must exceed low")
        raw = self._uint64(self._rows(size, blocks=False))
        # Multiply-shift bounded mapping (negligible modulo bias for the
        # span sizes used here: vertex counts << 2^64).
        if isinstance(raw, list):
            value = int((raw[0] >> 11) * _UNIT * span) + int(low)
            out = np.array([value], dtype=np.int64)
        else:
            scaled = _unit_floats(raw)
            scaled *= span
            out = scaled.astype(np.int64)
            out += np.int64(low)
        return out.astype(dtype, copy=False)


class TenantCounterRNG(CounterRNG):
    """Counter RNG whose key space is partitioned per tenant (per query).

    The serving front-end coalesces walks of many independent queries
    into one engine run.  Bit-identical replay per *query* requires each
    lane to hash exactly the key it would hash in a standalone
    ``CounterRNG(query_seed)`` run: ``(query_seed, local_walk_id, step,
    draw)``.  This subclass takes two side tables indexed by the coalesced
    run's *global* walk id — the owning query's seed and the walk's id
    local to that query — and folds them once into the lane-key table,
    ``query_seed + splitmix64(local_walk_id)``, so a global walk's lane
    key is the same one gather as in the base class.  The table is fixed:
    an id past it has no owning query and raises ``ValueError``.
    Context-free initialization draws keep the base-class fallback
    generator; the coalesced wrapper never uses it (start vertices are
    drawn per query from each query's own seeded stream).
    """

    def __init__(
        self,
        seed: Optional[int],
        lane_seeds: np.ndarray,
        lane_locals: np.ndarray,
    ) -> None:
        super().__init__(seed)
        lane_seeds = np.asarray(lane_seeds, dtype=np.uint64)
        lane_locals = np.asarray(lane_locals, dtype=np.uint64)
        if lane_seeds.shape != lane_locals.shape:
            raise ValueError(
                "lane_seeds and lane_locals must have identical shapes"
            )
        self._keys = splitmix64(lane_locals)
        self._keys += lane_seeds

    def _cover(self, ids: np.ndarray) -> np.ndarray:
        """The fixed table holds every walk of the run; nothing else."""
        low, top = int(ids.min()), int(ids.max())
        bad = low if low < 0 else top
        raise ValueError(
            f"walk id {bad} outside the tenant lane table "
            f"({self._keys.size} lanes)"
        )
