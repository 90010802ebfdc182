"""The in-partition kernel loop against the loop it replaced.

``reference_advance`` below is the previous
:meth:`~repro.algorithms.base.RandomWalkAlgorithm.advance_in_partition`
body, ``reference_uniform_neighbors`` the previous
:func:`~repro.algorithms.base.uniform_neighbors`, and the
``reference_*_step`` functions the previous ``step_once`` bodies of
uniform sampling, PageRank and PPR, which drew one ``random(n)`` per
decision; all are kept verbatim as the oracle: every round gathers the
lanes still stepping through an index into the batch, and the counter RNG
is bound with ``set_context(ids, steps)``.  The current loop steps round 1
in place on the batch's own arrays and carries per-lane RNG keys between
rounds, and PageRank and PPR draw one ``(2, n)`` block per step; on random
small graphs, batches, algorithms and RNG modes both must leave the same
walk arrays, return the same :class:`BatchRunResult`, make the same
``observe`` calls, record the same application state and, for the
sequential RNG, leave its stream at the same position.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    MetapathWalk,
    PageRank,
    PersonalizedPageRank,
    UniformSampling,
    uniform,
)
from repro.algorithms.base import BatchRunResult
from repro.core.prng import CounterRNG, TenantCounterRNG
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition
from repro.walks.state import WalkArrays


def reference_uniform_neighbors(partition, vertices, rng):
    local = vertices - partition.start
    starts = partition.offsets[local]
    degrees = partition.offsets[local + 1] - starts
    dead_end = degrees == 0
    pick = (rng.random(vertices.size) * degrees).astype(np.int64)
    safe = np.where(dead_end, 0, starts + np.minimum(pick, degrees - 1))
    next_vertices = partition.targets[safe]
    return np.where(dead_end, vertices, next_vertices), dead_end


def reference_uniform_step(self, vertices, steps, ids, partition, rng, graph):
    """``UniformSampling.step_once`` on an unweighted graph."""
    new_v, dead_end = reference_uniform_neighbors(partition, vertices, rng)
    terminated = steps >= self.length - 1
    terminated |= dead_end
    if self.paths is not None:
        self.paths[ids, steps + 1] = new_v
    return new_v, terminated


def reference_pagerank_step(self, vertices, steps, ids, partition, rng, graph):
    neighbor, dead_end = reference_uniform_neighbors(partition, vertices, rng)
    restart = rng.random(vertices.size) < self.restart_prob
    restart |= dead_end
    random_targets = rng.integers(
        0, self._num_vertices, size=vertices.size, dtype=np.int64
    )
    new_v = np.where(restart, random_targets, neighbor)
    terminated = steps + 1 >= self.length
    return new_v, terminated


def reference_ppr_step(self, vertices, steps, ids, partition, rng, graph):
    stop = rng.random(vertices.size) < self.stop_prob
    neighbor, dead_end = reference_uniform_neighbors(partition, vertices, rng)
    new_v = np.where(stop, vertices, neighbor)
    terminated = stop | dead_end | (steps + 1 >= self.max_length)
    return new_v, terminated


REFERENCE_STEPS = (
    (UniformSampling, reference_uniform_step),
    (PageRank, reference_pagerank_step),
    (PersonalizedPageRank, reference_ppr_step),
)


def reference_advance(algorithm, partition, walks, rng, graph=None):
    n = len(walks)
    if n == 0:
        return BatchRunResult(0, 0, np.zeros(0, dtype=bool))
    alive = np.ones(n, dtype=bool)
    idx = np.arange(n, dtype=np.int64)
    total_steps = 0
    rounds = 0
    set_context = getattr(rng, "set_context", None)
    while idx.size:
        ids = walks.ids[idx]
        if set_context is not None:
            set_context(ids, walks.steps[idx])
        new_v, terminated = algorithm.step_once(
            walks.vertices[idx],
            walks.steps[idx],
            ids,
            partition,
            rng,
            graph,
        )
        walks.vertices[idx] = new_v
        walks.steps[idx] += 1
        total_steps += int(idx.size)
        rounds += 1
        algorithm.observe(new_v, ids, terminated)
        if terminated.any():
            alive[idx[terminated]] = False
        keep = (
            ~terminated
            & (new_v >= partition.start)
            & (new_v < partition.stop)
        )
        idx = idx[keep]
    return BatchRunResult(total_steps, rounds, alive)


ALGORITHMS = ["uniform", "uniform-paths", "pagerank", "ppr", "metapath"]
RNGS = ["sequential", "counter", "tenant"]


def make_algorithm(name, graph, length, num_walks):
    if name == "metapath":
        types = np.arange(graph.num_vertices) % 3
        return MetapathWalk(types, (0, 1, 2), length=length)
    algorithm = {
        "uniform": lambda: UniformSampling(length=length),
        "uniform-paths": lambda: UniformSampling(length=length, record_paths=True),
        "pagerank": lambda: PageRank(length=length, restart_prob=0.3),
        "ppr": lambda: PersonalizedPageRank(stop_prob=0.3, max_length=length),
    }[name]()
    algorithm.start_vertices(graph, num_walks, np.random.default_rng(0))
    return algorithm


def make_rng(name, seed, num_walks):
    if name == "sequential":
        return np.random.default_rng(seed)
    if name == "counter":
        return CounterRNG(seed)
    tables = np.random.default_rng(seed).integers(
        0, 2**63, size=(2, num_walks), dtype=np.uint64
    )
    return TenantCounterRNG(seed, tables[0], tables[1])


def run_kernel(advance, case):
    """Everything a kernel leaves behind: walks, result, observe calls,
    application state, and whether it raised."""
    graph, partition, walks, algo_name, rng_name, seed, length = case
    num_walks = int(walks.ids.max()) + 1
    algorithm = make_algorithm(algo_name, graph, length, num_walks)
    rng = make_rng(rng_name, seed, num_walks)
    calls = []
    observe = algorithm.observe

    def recorded(vertices, ids, terminated):
        calls.append((vertices.copy(), ids.copy(), terminated.copy()))
        observe(vertices, ids, terminated)

    algorithm.observe = recorded
    walks = walks.copy()
    try:
        result = advance(algorithm, partition, walks, rng, graph)
    except IndexError as error:  # an edgeless partition
        return ("raised", type(error))
    state = [
        getattr(algorithm, attribute, None)
        for attribute in ("paths", "visit_counts", "early_terminations")
    ]
    after = rng.random(1) if rng_name == "sequential" else None
    return (walks, result, calls, state, after)


def new_advance(algorithm, partition, walks, rng, graph):
    return algorithm.advance_in_partition(partition, walks, rng, graph)


def parent_advance(algorithm, partition, walks, rng, graph):
    with ExitStack() as stack:
        for cls, step in REFERENCE_STEPS:
            stack.enter_context(mock.patch.object(cls, "step_once", step))
        return reference_advance(algorithm, partition, walks, rng, graph)


def assert_same(got, want):
    assert type(got) is type(want)
    if got[0] == "raised" or want[0] == "raised":
        assert got == want
        return
    walks, result, calls, state, after = got
    ref_walks, ref_result, ref_calls, ref_state, ref_after = want
    for array, ref in (
        (walks.vertices, ref_walks.vertices),
        (walks.steps, ref_walks.steps),
        (walks.ids, ref_walks.ids),
    ):
        assert array.dtype == ref.dtype
        assert np.array_equal(array, ref)
    assert result.total_steps == ref_result.total_steps
    assert result.longest_run == ref_result.longest_run
    assert result.active.dtype == ref_result.active.dtype
    assert np.array_equal(result.active, ref_result.active)
    assert len(calls) == len(ref_calls)
    for call, ref_call in zip(calls, ref_calls):
        for array, ref in zip(call, ref_call):
            assert np.array_equal(array, ref)
    for value, ref in zip(state, ref_state):
        assert np.array_equal(np.asarray(value), np.asarray(ref))
    assert np.array_equal(np.asarray(after), np.asarray(ref_after))


def build_case(
    degrees, targets_seed, span, lanes, steps, ids_extra, algo_name, rng_name,
    seed, length, last_dead,
):
    """A graph from per-vertex degrees and the kernel case over one of its
    vertex intervals ``span`` (its last vertex a dead end if asked)."""
    degrees = np.array(degrees, dtype=np.int64)
    start, stop = span
    if last_dead:
        degrees[stop - 1] = 0
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    picker = np.random.default_rng(targets_seed)
    targets = picker.integers(0, degrees.size, size=int(offsets[-1]))
    graph = CSRGraph(offsets, targets)
    e0, e1 = int(offsets[start]), int(offsets[stop])
    partition = GraphPartition(
        index=0,
        start=start,
        stop=stop,
        offsets=offsets[start : stop + 1] - e0,
        targets=targets[e0:e1],
    )
    vertices = picker.integers(start, stop, size=lanes)
    ids = picker.permutation(lanes + ids_extra)[:lanes]
    walks = WalkArrays(vertices, np.asarray(steps[:lanes]), ids)
    return graph, partition, walks, algo_name, rng_name, seed, length


@st.composite
def kernel_cases(draw):
    num_vertices = draw(st.integers(2, 24))
    degrees = draw(
        st.lists(
            st.integers(0, 4), min_size=num_vertices, max_size=num_vertices
        )
    )
    start = draw(st.integers(0, num_vertices - 1))
    stop = draw(st.integers(start + 1, num_vertices))
    lanes = draw(st.integers(1, 30))
    length = draw(st.integers(1, 6))
    round_one = draw(st.booleans())
    steps = draw(
        st.lists(
            st.integers(length - 1, length - 1)
            if round_one
            else st.integers(0, length - 1),
            min_size=lanes,
            max_size=lanes,
        )
    )
    return build_case(
        degrees,
        draw(st.integers(0, 2**32)),
        (start, stop),
        lanes,
        steps,
        draw(st.integers(0, 10)),
        draw(st.sampled_from(ALGORITHMS)),
        draw(st.sampled_from(RNGS)),
        draw(st.integers(0, 2**64 - 1)),
        length,
        draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases())
def test_kernel_loop_matches_the_reference(case):
    assert_same(run_kernel(new_advance, case), run_kernel(parent_advance, case))


DEGREES = [2, 0, 3, 1, 0, 2, 4, 1, 0, 3, 2, 0]


@pytest.mark.parametrize("rng_name", RNGS)
@pytest.mark.parametrize("algo_name", ALGORITHMS)
@pytest.mark.parametrize(
    "lanes, steps, last_dead",
    [
        (1, [1], False),  # one lane
        (9, [3] * 9, False),  # every lane's last step: one round
        (12, [0] * 12, True),  # dead ends, the partition's last vertex too
    ],
    ids=["one-lane", "all-terminate-in-round-1", "dead-ends"],
)
def test_kernel_loop_named_cases(algo_name, rng_name, lanes, steps, last_dead):
    case = build_case(
        DEGREES, 5, (2, 10), lanes, steps, 3, algo_name, rng_name, 11, 4,
        last_dead,
    )
    assert_same(run_kernel(new_advance, case), run_kernel(parent_advance, case))


def test_dead_end_at_the_partition_end_reads_one_past_its_edges():
    """The case the dead-end patch exists for: the partition's last vertex
    has no edges, so its offset equals ``targets.size``."""
    partition = build_case(
        DEGREES, 5, (2, 10), 4, [0] * 4, 0, "uniform", "counter", 1, 4, True
    )[1]
    last = np.full(4, partition.stop - 1)
    assert partition.offsets[-2] == partition.targets.size
    next_vertices, dead_end = uniform.uniform_neighbors(
        partition, last, np.random.default_rng(1).random(4)
    )
    assert dead_end.all()
    assert np.array_equal(next_vertices, last)
