"""Tests for counter-based per-walk randomness (scheduling-independent)."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    Node2Vec,
    PageRank,
    PersonalizedPageRank,
    UniformSampling,
)
from repro.core.config import COPY_EXPLICIT, COPY_ZERO, EngineConfig
from repro.core.engine import run_walks
from repro.core import prng
from repro.core.prng import (
    CounterRNG,
    TenantCounterRNG,
    derive_seed,
    seeded_rng,
    splitmix64,
)
from repro.graph import generators


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(10, dtype=np.uint64)
        assert np.array_equal(splitmix64(x), splitmix64(x))

    def test_avalanche(self):
        a = splitmix64(np.array([1], dtype=np.uint64))[0]
        b = splitmix64(np.array([2], dtype=np.uint64))[0]
        assert bin(int(a) ^ int(b)).count("1") > 16

    def test_input_unchanged(self):
        x = np.array([7], dtype=np.uint64)
        splitmix64(x)
        assert x[0] == 7


class TestSeededRng:
    def test_identity_with_default_rng(self):
        # The factory's stream-less path must stay bit-identical to the
        # direct construction it replaced (golden parity depends on it).
        ours = seeded_rng(42).random(64)
        theirs = np.random.default_rng(42).random(64)
        assert np.array_equal(ours, theirs)

    def test_none_seed_allowed(self):
        assert seeded_rng().random() is not None

    def test_named_stream_forks(self):
        base = seeded_rng(42).random(16)
        forked = seeded_rng(42, stream="loader").random(16)
        assert not np.array_equal(base, forked)

    def test_streams_independent(self):
        a = seeded_rng(42, stream="loader").random(16)
        b = seeded_rng(42, stream="scheduler").random(16)
        assert not np.array_equal(a, b)

    def test_stream_deterministic(self):
        a = seeded_rng(42, stream="loader").random(16)
        b = seeded_rng(42, stream="loader").random(16)
        assert np.array_equal(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")

    def test_varies_with_seed_and_stream(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")
        assert derive_seed(7, "x") != derive_seed(7, "y")

    def test_none_seed_is_zero_seed(self):
        assert derive_seed(None, "x") == derive_seed(0, "x")

    def test_fits_uint64(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(seed, "s") < 2**64


class TestCounterRNG:
    def make(self, seed=1, n=8):
        rng = CounterRNG(seed)
        rng.set_context(
            np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int32)
        )
        return rng

    def test_random_range(self):
        values = self.make().random(8)
        assert np.all((values >= 0) & (values < 1))

    def test_draw_counter_advances(self):
        rng = self.make()
        a = rng.random(8)
        b = rng.random(8)
        assert not np.array_equal(a, b)

    def test_context_reset_replays(self):
        rng = self.make()
        a = rng.random(8)
        rng.set_context(
            np.arange(8, dtype=np.int64), np.zeros(8, dtype=np.int32)
        )
        b = rng.random(8)
        assert np.array_equal(a, b)

    def test_per_walk_independence(self):
        """A walk's draw is a function of its id, not its lane position."""
        rng = CounterRNG(3)
        rng.set_context(
            np.array([5, 9], dtype=np.int64), np.zeros(2, dtype=np.int32)
        )
        both = rng.random(2)
        rng.set_context(np.array([9], dtype=np.int64), np.zeros(1, dtype=np.int32))
        alone = rng.random(1)
        assert both[1] == alone[0]

    def test_step_changes_stream(self):
        rng = CounterRNG(3)
        rng.set_context(np.array([1], dtype=np.int64), np.array([0], dtype=np.int32))
        a = rng.random(1)
        rng.set_context(np.array([1], dtype=np.int64), np.array([1], dtype=np.int32))
        b = rng.random(1)
        assert a[0] != b[0]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="context lanes"):
            self.make(n=8).random(4)

    def test_integers_bounds(self):
        rng = self.make(n=1000)
        values = rng.integers(0, 7, size=1000)
        assert values.min() >= 0 and values.max() <= 6
        assert len(np.unique(values)) == 7  # all buckets hit

    def test_integers_invalid_span(self):
        with pytest.raises(ValueError):
            self.make().integers(5, 5, size=8)

    def test_no_context_falls_back(self):
        rng = CounterRNG(1)
        assert rng.random(4).shape == (4,)
        assert rng.integers(0, 10, size=4).shape == (4,)

    def test_uniformity_rough(self):
        rng = CounterRNG(11)
        rng.set_context(
            np.arange(20000, dtype=np.int64), np.zeros(20000, dtype=np.int32)
        )
        values = rng.random(20000)
        assert abs(values.mean() - 0.5) < 0.02
        hist, __ = np.histogram(values, bins=10, range=(0, 1))
        assert hist.min() > 1600


class TestSchedulingIndependence:
    """The headline property: trajectories identical under any schedule."""

    GRAPH = generators.rmat(scale=9, edge_factor=5, seed=23, name="ctr")

    def run_counts(self, **options):
        defaults = dict(
            partition_bytes=2048,
            batch_walks=32,
            graph_pool_partitions=4,
            seed=13,
            rng_mode="counter",
        )
        defaults.update(options)
        config = EngineConfig(**defaults)
        algo = PageRank(length=9)
        run_walks(self.GRAPH, algo, 200, config)
        return algo.visit_counts

    def test_identical_across_all_schedules(self):
        reference = self.run_counts()
        for options in (
            dict(preemptive=False),
            dict(selective=False),
            dict(pipeline=False),
            dict(copy_mode=COPY_ZERO),
            dict(copy_mode=COPY_EXPLICIT),
            dict(batch_walks=8),
            dict(graph_pool_partitions=2),
            dict(walk_pool_walks=64),
        ):
            assert np.array_equal(reference, self.run_counts(**options)), options

    def test_sequential_mode_differs_across_schedules(self):
        """Contrast: the default shared stream is order-dependent."""

        def counts(**options):
            config = EngineConfig(
                partition_bytes=2048,
                batch_walks=32,
                graph_pool_partitions=4,
                seed=13,
                **options,
            )
            algo = PageRank(length=9)
            run_walks(self.GRAPH, algo, 200, config)
            return algo.visit_counts

        assert not np.array_equal(
            counts(), counts(preemptive=False)
        )

    def test_all_supported_algorithms_run(self):
        config = EngineConfig(
            partition_bytes=2048,
            batch_walks=32,
            graph_pool_partitions=4,
            rng_mode="counter",
        )
        for algo in (
            UniformSampling(length=5),
            PageRank(length=5),
            PersonalizedPageRank(stop_prob=0.3),
        ):
            stats = run_walks(self.GRAPH, algo, 80, config)
            assert stats.total_steps > 0

    def test_node2vec_rejected(self):
        config = EngineConfig(rng_mode="counter")
        with pytest.raises(ValueError, match="subset redraws"):
            run_walks(self.GRAPH, Node2Vec(length=4), 10, config)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_mode"):
            EngineConfig(rng_mode="quantum")


def test_rejection_weighted_rejected_in_counter_mode():
    from repro.graph import generators as gen

    graph = gen.with_random_weights(gen.ring(16), seed=1)
    config = EngineConfig(rng_mode="counter", partition_bytes=1024,
                          batch_walks=8, graph_pool_partitions=2)
    algo = UniformSampling(length=3, weighted=True, sampler="rejection")
    with pytest.raises(ValueError, match="subset redraws"):
        run_walks(graph, algo, 10, config)


def test_alias_weighted_supported_in_counter_mode():
    from repro.graph import generators as gen

    graph = gen.with_random_weights(gen.ring(16), seed=1)
    config = EngineConfig(rng_mode="counter", partition_bytes=1024,
                          batch_walks=8, graph_pool_partitions=2)
    algo = UniformSampling(length=3, weighted=True, sampler="alias")
    stats = run_walks(graph, algo, 10, config)
    assert stats.total_steps == 30


# ----------------------------------------------------------------------
# The key decomposition against the formula it replaced: three splitmix64
# calls per draw, ``splitmix64(seed + splitmix64(id) + splitmix64(step +
# salt) + draw * gamma)``, kept here verbatim as the oracle.
# ----------------------------------------------------------------------
GAMMA = np.uint64(0x9E3779B97F4A7C15)
STEP_SALT = np.uint64(0x632BE59BD9B4E019)
MASK = 0xFFFFFFFFFFFFFFFF


def oracle_splitmix64(x):
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += GAMMA
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def oracle_uint64(seeds, ids, steps, draw):
    """``seeds`` is one seed per lane (a tenant's) or a scalar."""
    with np.errstate(over="ignore"):
        key = (
            seeds
            + oracle_splitmix64(ids.astype(np.uint64))
            + oracle_splitmix64(steps.astype(np.uint64) + STEP_SALT)
            + np.uint64(draw) * GAMMA
        )
    return oracle_splitmix64(key)


def oracle_draw(kind, bounds, seeds, ids, steps, draw):
    raw = oracle_uint64(seeds, ids, steps, draw)
    if kind == "random":
        return (raw >> np.uint64(11)) * (2.0 ** -53)
    low, high = bounds
    scaled = (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return (np.int64(low) + (scaled * (high - low)).astype(np.int64)).astype(
        np.int64
    )


@contextmanager
def initial_step_table():
    """Shrink the module's step table to its import-time size, so steps
    past it make this example grow the table; restore afterwards."""
    grown = prng._step_table
    prng._step_table = INITIAL_STEP_TABLE.copy()
    try:
        yield
    finally:
        prng._step_table = grown


INITIAL_STEP_TABLE = prng._step_table[:128].copy()


@st.composite
def rng_cases(draw):
    lanes = draw(st.integers(1, 40))
    seed = draw(st.sampled_from([None, 0, 1, MASK]) | st.integers(0, MASK))
    tenant = draw(st.booleans())
    if tenant:
        table = draw(st.integers(lanes, 3 * lanes))
        ids = draw(
            st.lists(st.integers(0, table - 1), min_size=lanes, max_size=lanes)
        )
        lane_seeds = draw(
            st.lists(
                st.sampled_from([0, MASK]) | st.integers(0, MASK),
                min_size=table, max_size=table,
            )
        )
        lane_locals = draw(
            st.lists(st.integers(0, 2**63), min_size=table, max_size=table)
        )
        tables = (
            np.array(lane_seeds, dtype=np.uint64),
            np.array(lane_locals, dtype=np.uint64),
        )
    else:
        ids = draw(
            st.lists(st.integers(0, 2**62), min_size=lanes, max_size=lanes)
        )
        tables = None
    # Past the 128-entry initial table: the first such context grows it.
    steps = draw(
        st.lists(
            st.integers(0, 127) | st.integers(128, 3000),
            min_size=lanes, max_size=lanes,
        )
    )
    step_dtype = draw(st.sampled_from([np.int32, np.int64]))
    # Subset contexts, as the multiprocess backend binds them.
    subset = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
    draws = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["random", "integers"]),
                st.integers(-50, 50),
                st.integers(1, 10**9),
            ),
            max_size=5,
        )
    )
    return (
        seed, tables, np.array(ids, dtype=np.int64),
        np.array(steps, dtype=step_dtype), np.array(subset, dtype=bool), draws,
    )


def disagreement(case):
    """Bind every context form of ``case``; the first draw that differs."""
    seed, tables, ids, steps, subset, draws = case
    if tables is None:
        rng = CounterRNG(seed)
        seeds = np.uint64((seed or 0) & MASK)
        locals_ = ids
    else:
        rng = TenantCounterRNG(seed, *tables)
        seeds, locals_ = tables[0][ids], tables[1][ids]
    lane = np.flatnonzero(subset)
    contexts = {
        "set_context(ids, steps)": (np.arange(ids.size), None),
        "set_context(ids, steps, keys)": (np.arange(ids.size), "keys"),
        "subset set_context(ids, steps)": (lane, None),
        "subset set_context(ids, steps, keys)": (lane, "keys"),
    }
    keys = rng.lane_keys(ids)
    for form, (sel, with_keys) in contexts.items():
        if sel.size == 0:
            continue
        lane_seeds = seeds if np.ndim(seeds) == 0 else seeds[sel]
        rng.set_context(
            ids[sel], steps[sel], keys[sel] if with_keys else None
        )
        for index, (kind, low, span) in enumerate(draws):
            bounds = (low, low + span)
            if kind == "random":
                got = rng.random(sel.size)
            else:
                got = rng.integers(*bounds, size=sel.size)
            want = oracle_draw(
                kind, bounds, lane_seeds, locals_[sel], steps[sel], index
            )
            if got.dtype != want.dtype or not np.array_equal(got, want):
                return f"{form}: draw {index} ({kind}) {got} != {want}"
    return None


@settings(max_examples=200, deadline=None)
@given(case=rng_cases())
def test_counter_draws_match_the_three_hash_formula(case):
    with initial_step_table():
        assert disagreement(case) is None


# Seeded mutants of the step hash: each must be told apart by the oracle.
def dropped_salt(steps):
    return oracle_splitmix64(steps.astype(np.uint64))


def stale_step_table(steps):
    """Grows the table by repeating its entries instead of hashing."""
    index = steps.astype(np.intp)
    if int(index.max()) >= prng._step_table.size:
        prng._step_table = np.resize(prng._step_table, int(index.max()) + 1)
    return prng._step_table[index]


MUTANT_CASE = (
    7, None, np.array([3, 2**40], dtype=np.int64),
    np.array([5, 700], dtype=np.int32), np.array([False, True]),
    [("random", 0, 1), ("integers", 0, 1000)],
)


@pytest.mark.parametrize("mutant", [dropped_salt, stale_step_table])
def test_step_hash_mutants_are_told_apart(mutant, monkeypatch):
    with initial_step_table():
        assert disagreement(MUTANT_CASE) is None
    with initial_step_table():
        monkeypatch.setattr(prng, "_step_hashes", mutant)
        assert disagreement(MUTANT_CASE) is not None


def test_step_table_grows_past_its_initial_size():
    with initial_step_table():
        rng = CounterRNG(1)
        rng.set_context(np.array([4]), np.array([5000], dtype=np.int32))
        assert prng._step_table.size > 5000
        want = oracle_draw(
            "random", None, np.uint64(1), np.array([4]), np.array([5000]), 0
        )
        assert np.array_equal(rng.random(1), want)


# ----------------------------------------------------------------------
# Lane keys: one gather from a per-RNG table.
# ----------------------------------------------------------------------
@contextmanager
def lane_table(limit):
    """Hash ids from ``limit`` on per call instead of tabling them."""
    saved = prng._LANE_TABLE_LIMIT
    prng._LANE_TABLE_LIMIT = limit
    try:
        yield
    finally:
        prng._LANE_TABLE_LIMIT = saved


@settings(max_examples=150, deadline=None)
@given(
    seed=st.sampled_from([None, 0, MASK]) | st.integers(0, MASK),
    calls=st.lists(
        st.lists(st.integers(0, 5000), max_size=30), min_size=1, max_size=6
    ),
    limit=st.sampled_from([1 << 22, 1024, 1]),
)
def test_counter_lane_keys_are_seed_plus_hash(seed, calls, limit):
    """Every call equals ``seed + splitmix64(id)``, whether the ids are in
    the table, make it grow, or lie past the table limit."""
    rng = CounterRNG(seed)
    with lane_table(limit):
        for call in calls:
            ids = np.array(call, dtype=np.int64)
            want = np.uint64((seed or 0) & MASK) + oracle_splitmix64(ids)
            got = rng.lane_keys(ids)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
    assert rng._keys.size <= 2 * max(max(c, default=0) for c in calls) + 1


@settings(max_examples=100, deadline=None)
@given(data=st.data(), size=st.integers(1, 60))
def test_tenant_lane_keys_are_query_seed_plus_local_hash(data, size):
    seeds = np.array(
        data.draw(st.lists(st.integers(0, MASK), min_size=size, max_size=size)),
        dtype=np.uint64,
    )
    locals_ = np.array(
        data.draw(st.lists(st.integers(0, 2**40), min_size=size, max_size=size)),
        dtype=np.uint64,
    )
    rng = TenantCounterRNG(5, seeds, locals_)
    ids = np.array(
        data.draw(st.lists(st.integers(0, size - 1), max_size=40)),
        dtype=np.int64,
    )
    want = seeds[ids] + oracle_splitmix64(locals_[ids])
    assert np.array_equal(rng.lane_keys(ids), want)


def four_lane_rngs():
    tenant = TenantCounterRNG(
        3, np.arange(4, dtype=np.uint64), np.arange(4, dtype=np.uint64)
    )
    counter = CounterRNG(3)
    counter.lane_keys(np.arange(4))  # the table covers ids 0..3
    return {"counter": counter, "tenant": tenant}


@pytest.mark.parametrize("kind", ["counter", "tenant"])
@pytest.mark.parametrize("ids", [[-1], [2, -1], [-(2**62), 3]])
def test_negative_walk_id_has_no_lane_key(kind, ids):
    """A negative id used to read the last tenant lane's key (or hash as a
    huge uint64); both classes now refuse it, on both entry points."""
    rng = four_lane_rngs()[kind]
    ids = np.array(ids, dtype=np.int64)
    with pytest.raises(ValueError, match="walk id"):
        rng.lane_keys(ids)
    with pytest.raises(ValueError, match="walk id"):
        rng.set_context(ids, np.zeros(ids.size, dtype=np.int32))


def test_walk_id_past_the_tenant_table_raises():
    rng = four_lane_rngs()["tenant"]
    with pytest.raises(ValueError, match="walk id 4 outside"):
        rng.lane_keys(np.array([0, 4]))


# ----------------------------------------------------------------------
# Draw blocks: a step draws ``random((k, n))`` once instead of k
# ``random(n)`` calls.  Both generators must make that the same stream.
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, MASK),
    k=st.integers(0, 5),
    n=st.integers(1, 70),
    before=st.integers(0, 3),
)
def test_generator_block_is_consecutive_draws(seed, k, n, before):
    """``Generator.random((k, n))`` fills row-major: the same values as k
    consecutive ``random(n)`` calls, and the stream goes on from there."""
    block, calls = np.random.default_rng(seed), np.random.default_rng(seed)
    block.random(before)
    calls.random(before)
    want = np.array([calls.random(n) for __ in range(k)]).reshape(k, n)
    assert np.array_equal(block.random((k, n)), want)
    assert np.array_equal(block.random(3), calls.random(3))


@st.composite
def block_cases(draw):
    lanes = draw(st.sampled_from([1, 1, 2]) | st.integers(1, 40))
    seed = draw(st.integers(0, MASK))
    tenant = draw(st.booleans())
    ids = draw(
        st.lists(st.integers(0, 3 * lanes), min_size=lanes, max_size=lanes)
    )
    tables = None
    if tenant:
        table = 3 * lanes + 1
        tables = tuple(
            np.array(
                draw(st.lists(st.integers(0, MASK), min_size=table,
                              max_size=table)),
                dtype=np.uint64,
            )
            for __ in range(2)
        )
    steps = draw(
        st.lists(
            st.integers(0, 127) | st.integers(128, 3000),
            min_size=lanes, max_size=lanes,
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["random", "integers"]),
                st.integers(0, 4),
                st.integers(1, 10**9),
            ),
            min_size=1, max_size=6,
        )
    )
    return seed, tables, np.array(ids), np.array(steps), ops


def block_disagreement(case):
    """Run ``case``'s draws twice: blocks as asked, and every block of k
    rows as k consecutive ``random(n)`` calls.  Each value must also equal
    the three-hash formula at its draw index.  The first difference."""
    seed, tables, ids, steps, ops = case
    rngs = []
    for __ in range(2):
        if tables is None:
            rng = CounterRNG(seed)
        else:
            rng = TenantCounterRNG(seed, *tables)
        rng.set_context(ids, steps)
        rngs.append(rng)
    blocks, calls = rngs
    if tables is None:
        seeds, locals_ = np.uint64(seed), ids
    else:
        seeds, locals_ = tables[0][ids], tables[1][ids]
    index = 0
    n = ids.size
    for op, k, span in ops:
        if op == "integers":
            bounds = (-7, span - 7)
            got = blocks.integers(*bounds, size=n)
            want = calls.integers(*bounds, size=n)
            formula = [oracle_draw(op, bounds, seeds, locals_, steps, index)]
            index += 1
        elif k == 0:
            got, want = blocks.random((n,)), calls.random(n)
            formula = [oracle_draw(op, None, seeds, locals_, steps, index)]
            index += 1
        else:
            got = blocks.random((k, n))
            want = np.array([calls.random(n) for __ in range(k)])
            formula = [
                oracle_draw(op, None, seeds, locals_, steps, index + j)
                for j in range(k)
            ]
            index += k
        formula = np.array(formula).reshape(got.shape)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return f"{op} k={k}: block {got} != calls {want}"
        if not np.array_equal(got, formula):
            return f"{op} k={k}: {got} != formula {formula}"
    return None


@settings(max_examples=200, deadline=None)
@given(case=block_cases())
def test_counter_block_is_consecutive_draws(case):
    """``CounterRNG.random((k, n))`` equals k consecutive ``random(n)``
    draws of one context, interleaved with ``integers``: the vector path,
    the one-lane path, a tenant table and steps past the step table."""
    with initial_step_table():
        assert block_disagreement(case) is None


BLOCK_CASES = [
    (5, None, np.array([3]), np.array([900]),
     [("random", 2, 1), ("random", 0, 1), ("integers", 0, 1000)]),
    (5, None, np.array([3, 8, 1]), np.array([0, 2, 900]),
     [("random", 2, 1), ("random", 0, 1), ("integers", 0, 1000)]),
]


@pytest.mark.parametrize("case", BLOCK_CASES, ids=["one-lane", "vector"])
def test_a_block_that_does_not_advance_the_offset_is_caught(case, monkeypatch):
    """A mutant that moves the draw offset by one after a k-row block
    repeats draws; the block check must tell it apart on both paths."""
    assert block_disagreement(case) is None
    uint64 = CounterRNG._uint64

    def stuck(self, rows):
        draw = self._draw
        out = uint64(self, rows)
        self._draw = draw + 1
        return out

    monkeypatch.setattr(CounterRNG, "_uint64", stuck)
    assert block_disagreement(case) is not None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, MASK),
    wid=st.integers(0, 5000),
    step=st.integers(0, 3000),
    spans=st.lists(
        st.tuples(st.integers(-(10**6), 10**6), st.integers(1, 2**40)),
        min_size=1, max_size=5,
    ),
)
def test_one_lane_integers_equal_the_vector_path(seed, wid, step, spans):
    """A one-lane context hashes in Python integers; each draw must equal
    the same lane's draw in a vector context, over random spans."""
    one, many = CounterRNG(seed), CounterRNG(seed)
    one.set_context(np.array([wid]), np.array([step]))
    many.set_context(np.array([wid, wid + 1]), np.array([step, 0]))
    for low, span in spans:
        got = one.integers(low, low + span, size=1)
        want = many.integers(low, low + span, size=2)[:1]
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(one.random(1), many.random(2)[:1])


@pytest.mark.parametrize("lanes", [1, 3])
def test_counter_rng_takes_generator_shapes(lanes):
    """``(n,)`` for both draws and ``(k, n)`` for ``random``, as a NumPy
    ``Generator`` takes them; any other size raises ``ValueError``."""
    rng = CounterRNG(2)
    ids, steps = np.arange(lanes), np.zeros(lanes, dtype=np.int32)
    rng.set_context(ids, steps)
    flat = rng.random(lanes)
    ints = rng.integers(0, 50, size=lanes)
    block = rng.random((2, lanes))
    rng.set_context(ids, steps)
    assert np.array_equal(rng.random((lanes,)), flat)
    assert np.array_equal(rng.integers(0, 50, size=(lanes,)), ints)
    assert np.array_equal(rng.random([2, lanes]), block)
    assert block.shape == (2, lanes)
    assert rng.random((0, lanes)).shape == (0, lanes)
    for size in [lanes + 1, (lanes + 1,), (2, lanes + 1), (1, 2, lanes), ()]:
        with pytest.raises(ValueError, match="context lanes"):
            rng.random(size)
    for size in [(2, lanes), (lanes + 1,)]:
        with pytest.raises(ValueError, match="context lanes"):
            rng.integers(0, 50, size=size)
