"""stream_block / jitter_block: bit-identical to sequential stream().

The whole vectorized-physics edifice rests on one claim — a
:class:`~repro.rng.StreamBlock` replays exactly the per-iteration
generators :func:`~repro.rng.stream` would construct — so these tests
pin it property-style across seeds, key paths, draw shapes, and
iteration subsets.  They also pin, each under its own name, the three
facts that let blocks over one cell's streams share a single seeding
and a single standard-normal prefix, and the number of stream entries
and seeding passes that sharing leaves on three whole workloads.
"""

from __future__ import annotations

import contextlib
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

import repro.rng as rng_module
from repro.rng import (
    NATIVE_SEED_MAX,
    StreamBlock,
    co_seed,
    jitter,
    jitter_block,
    lognormal_jitter,
    lognormal_jitter_block,
    stream,
    stream_block,
)

KEYS = st.lists(
    st.one_of(
        st.text(min_size=0, max_size=8),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.booleans(),
    ),
    min_size=0,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), key=KEYS, n=st.integers(0, 12))
def test_normal_matches_sequential_streams(seed, key, n):
    block = stream_block(seed, *key, iterations=n)
    got = block.normal(1.0, 0.17)
    want = np.array([stream(seed, *key, i).normal(1.0, 0.17) for i in range(n)])
    assert got.shape == (n,)
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scales=st.lists(st.floats(min_value=1e-3, max_value=0.9), min_size=1, max_size=6),
    n=st.integers(1, 8),
)
def test_vector_scales_match_sequential_draws(seed, scales, n):
    """A (k,) scale row gathers k sequential draws per iteration."""
    block = stream_block(seed, "grp", 64, iterations=n)
    got = block.normal(1.0, scales)
    assert got.shape == (n, len(scales))
    for i in range(n):
        rng = stream(seed, "grp", 64, i)
        want = [rng.normal(1.0, s) for s in scales]
        assert np.array_equal(got[i], want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(0, 10))
def test_jitter_blocks_match_scalar_helpers(seed, n):
    assert np.array_equal(
        jitter_block(stream_block(seed, "j", iterations=n), 0.4),
        [jitter(stream(seed, "j", i), 0.4) for i in range(n)],
    )
    assert np.array_equal(
        lognormal_jitter_block(stream_block(seed, "lj", iterations=n), 0.12),
        [lognormal_jitter(stream(seed, "lj", i), 0.12) for i in range(n)],
    )


def test_iteration_subsets_cover_exact_streams():
    """A block over [3, 9, 17] is those iterations' streams, no others."""
    block = stream_block(7, "run", "env", 64, iterations=[3, 9, 17])
    got = block.normal(1.0, 0.2)
    want = [stream(7, "run", "env", 64, i).normal(1.0, 0.2) for i in (3, 9, 17)]
    assert np.array_equal(got, want)


def test_random_gathers_match_sequential_draws():
    block = stream_block(3, "r", iterations=9)
    got = block.random(5)
    for i in range(9):
        assert np.array_equal(got[i], stream(3, "r", i).random(size=5))
    singles = stream_block(3, "r1", iterations=9).random()
    assert np.array_equal(singles, [stream(3, "r1", i).random() for i in range(9)])


def test_generator_escape_hatch_replays_streams():
    """generator(j) serves arbitrary scalar draw sequences (fallback path)."""
    block = stream_block(1, "fb", 32, iterations=4)
    for j in range(4):
        got = block.generator(j)
        want = stream(1, "fb", 32, j)
        assert got.normal(1.0, 0.3) == want.normal(1.0, 0.3)
        assert np.array_equal(got.random(size=3), want.random(size=3))


def test_whole_block_gathers_are_single_pass():
    block = stream_block(1, "once", iterations=3)
    block.normal(1.0, 0.1)
    with pytest.raises(RuntimeError):
        block.lognormal(0.0, 0.1)


def test_empty_block_draws_empty_columns():
    block = stream_block(1, "empty", iterations=0)
    assert block.normal(1.0, 0.1).shape == (0,)
    assert len(stream_block(1, "e2", iterations=0)) == 0


def test_co_seed_preserves_stream_identity():
    """Jointly seeded blocks draw exactly their own streams."""
    a = stream_block(5, "run", "env", 32, iterations=6)
    b = stream_block(5, "hookup", "aws", False, 32, "k8s", iterations=6)
    co_seed(a, b)
    assert np.array_equal(
        a.normal(1.0, 0.1),
        [stream(5, "run", "env", 32, i).normal(1.0, 0.1) for i in range(6)],
    )
    assert np.array_equal(
        b.lognormal(0.0, 0.12),
        [stream(5, "hookup", "aws", False, 32, "k8s", i).lognormal(0.0, 0.12) for i in range(6)],
    )


def test_seeded_state_reuse_between_identical_blocks():
    """seeded_states()/install_states() share one object (the per-cell
    memo's value): the second block slices the first block's normal
    prefix without entering a stream."""
    a = stream_block(5, "run", "env", 32, iterations=6)
    streams = a.seeded_states()
    want = [stream(5, "run", "env", 32, i).normal(1.0, 0.25) for i in range(6)]
    assert np.array_equal(a.normal(1.0, 0.25), want)
    b = stream_block(5, "run", "env", 32, iterations=6)
    b.install_states(streams)
    assert b.seeded_states() is streams
    with _draw_counts() as calls:
        assert np.array_equal(b.normal(1.0, 0.25), want)
    assert calls == {}


# -- the three facts behind the shared prefix ------------------------------


def _pcg64_seeded(seed, keys):
    """(states, incs) of ``PCG64(SeedSequence(...))``, numpy's own seeding."""
    states = [PCG64(SeedSequence((seed & 0xFFFFFFFF, key))).state["state"] for key in keys]
    return [s["state"] for s in states], [s["inc"] for s in states]


@pytest.mark.parametrize("seed", [0, 3, 2**31 + 7, 2**32 - 1])
def test_native_and_vectorized_seeding_both_match_numpy(seed):
    """Fact 1: both seeding paths reproduce PCG64's post-seeding state,
    at every size from 1 to 40 streams (the crossover lies between)."""
    for n in range(1, 41):
        keys = stream_block(seed, "run", "cpu-eks-aws", 64, iterations=n)._keys()
        want = _pcg64_seeded(seed, keys)
        assert rng_module._native_states(seed, keys) == want
        assert rng_module._seed_states(seed, keys) == want


def test_numpy_normal_is_loc_plus_scale_times_standard_normal():
    """Fact 2: numpy computes ``normal(loc, scale)`` as ``loc + scale *
    standard_normal()`` element by element, with two roundings.  A numpy
    build that fuses the multiply-add into one rounding fails here
    (40 streams x 257 draws, with a vector scale and a scalar one)."""
    for seed in range(40):
        params = Generator(PCG64(10_000 + seed))
        loc = float(params.uniform(-5.0, 5.0))
        scale = params.uniform(1e-3, 3.0, size=257)
        want = loc + scale * Generator(PCG64(seed)).standard_normal(257)
        assert np.array_equal(Generator(PCG64(seed)).normal(loc, scale), want)
        scalar = Generator(PCG64(seed))
        one = float(scale[0])
        got = [scalar.normal(loc, one) for _ in range(257)]
        assert np.array_equal(got, loc + one * Generator(PCG64(seed)).standard_normal(257))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 40), more=st.integers(1, 200))
def test_standard_normal_prefix_does_not_depend_on_draw_count(seed, k, more):
    """Fact 3: a stream's first k standard normals are the same however
    many more are drawn after them."""
    short = Generator(PCG64(seed)).standard_normal(k)
    assert np.array_equal(Generator(PCG64(seed)).standard_normal(k + more)[:k], short)


ITERATION_SETS = st.one_of(
    st.integers(0, 12).map(lambda n: list(range(n))),
    st.lists(st.integers(0, 500), unique=True, max_size=12),
)
SCALES = st.floats(min_value=1e-3, max_value=0.9)
REQUESTS = st.lists(
    st.one_of(
        st.tuples(st.just("normal"), SCALES),
        st.tuples(st.just("normal"), st.lists(SCALES, max_size=9)),
        st.tuples(st.just("random"), st.one_of(st.none(), st.integers(1, 5))),
        st.tuples(st.just("generator"), st.integers(0, 11)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), key=KEYS, iterations=ITERATION_SETS, requests=REQUESTS)
def test_blocks_sharing_a_cells_streams_serve_any_request_sequence(
    seed, key, iterations, requests
):
    """One :class:`~repro.rng.SeededStreams` serves a sequence of
    per-app blocks, as the per-cell memo does: normal gathers with
    scalar and vector scales (the prefix widening and being sliced
    narrower), interleaved with ``random`` and ``generator`` entries.
    Every gather equals the same call on fresh per-iteration streams."""
    shared = stream_block(seed, *key, iterations=iterations).seeded_states()
    for op, arg in requests:
        block = stream_block(seed, *key, iterations=iterations)
        block.install_states(shared)
        fresh = [stream(seed, *key, i) for i in iterations]
        n = len(iterations)
        if op == "generator":
            if n:
                gen, want = block.generator(arg % n), fresh[arg % n]
                assert gen.standard_normal() == want.standard_normal()
                assert np.array_equal(gen.random(2), want.random(2))
            continue
        if op == "normal":
            got, want = block.normal(1.0, arg), [g.normal(1.0, arg) for g in fresh]
            shape = (n,) if np.ndim(arg) == 0 else (n, len(arg))
        else:
            got, want = block.random(arg), [g.random(arg) for g in fresh]
            shape = (n,) if arg is None else (n, arg)
        assert got.shape == shape
        assert np.array_equal(got, np.array(want, dtype=np.float64).reshape(shape))


def test_normal_refuses_a_negative_scale_like_numpy():
    with pytest.raises(ValueError, match="scale < 0"):
        stream_block(1, "neg", iterations=3).normal(1.0, -0.1)
    with pytest.raises(ValueError, match="scale < 0"):
        stream_block(1, "neg", iterations=3).normal(1.0, [0.1, -0.1])


def test_co_seed_picks_the_seeding_path_by_total_stream_count(monkeypatch):
    """A co-seeded run and hookup pair of n streams each is one seeding
    pass of 2n streams: native up to the crossover (15), vectorized
    above it.  The streams are the same either way."""
    passes = []
    for name in ("_native_states", "_seed_states"):
        fn = getattr(rng_module, name)
        monkeypatch.setattr(
            rng_module, name,
            lambda seed, keys, fn=fn, name=name: passes.append((name, len(keys))) or fn(seed, keys),
        )
    assert NATIVE_SEED_MAX == 15
    for n, path in ((7, "_native_states"), (8, "_seed_states")):
        passes.clear()
        run = stream_block(9, "run", "env", 32, iterations=n)
        hookup = stream_block(9, "hookup", "aws", False, 32, "k8s", iterations=n)
        co_seed(run, hookup)
        assert passes == [(path, 2 * n)]
        want = [stream(9, "run", "env", 32, i).normal(1.0, 0.1) for i in range(n)]
        assert np.array_equal(run.normal(1.0, 0.1), want)


# -- the counts on whole workloads -----------------------------------------


@contextlib.contextmanager
def _draw_counts():
    """Count stream entries (``StreamBlock._enter``) and seeding passes
    by path, with the streams each path seeded."""
    calls: Counter = Counter()
    enter = StreamBlock._enter

    def enter_spy(self, j):
        calls["entries"] += 1
        return enter(self, j)

    def pass_spy(path, fn):
        def spy(seed, keys):
            calls[f"{path} passes"] += 1
            calls[f"{path} streams"] += len(keys)
            return fn(seed, keys)

        return spy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamBlock, "_enter", enter_spy)
        patch.setattr(rng_module, "_native_states", pass_spy("native", rng_module._native_states))
        patch.setattr(rng_module, "_seed_states", pass_spy("vectorized", rng_module._seed_states))
        yield calls


def test_report_enters_each_cells_streams_once_per_draw_kind():
    """``repro report`` at seed 0: 1,229 stream entries and 160 native
    seeding passes of 1,079 streams in all.  127 passes co-seed a run
    block and a hookup block of at most 10 streams each; the hookup
    experiment's 32 means and fig4's AKS check seed their own hookup
    blocks (33 passes of 321 streams, one log-normal entry each).  Over
    the 863 entries and 120 passes of 744 streams before fig5, nodebench,
    fig2's topology check and the hookup means drew from blocks (2,311
    entries when every app redrew its normals), the entries add those
    321, 7 hookups of nodebench's new one-iteration cells, fig5's 35
    (7 environments x 5 iterations widen their prefix to 69 normals),
    nodebench's 2 AKS lotteries and fig2's 1 prefix."""
    from repro.reporting.report import generate_report

    with _draw_counts() as calls:
        generate_report(seed=0)
    assert calls == {"entries": 1229, "native passes": 160, "native streams": 1079}


def test_default_ensemble_enters_each_cells_streams_once_per_draw_kind():
    """The default 8-replica ensemble plan run inline: 3,680 entries
    (7,904 before) and 416 native passes of 4 streams."""
    from repro.ensemble import EnsembleRunner, EnsembleSpec

    with _draw_counts() as calls:
        EnsembleRunner(EnsembleSpec(n_replicas=8)).run()
    assert calls == {"entries": 3680, "native passes": 416, "native streams": 1664}


def test_cached_study_enters_each_cells_streams_once_per_draw_kind():
    """perfbench's ``study-cache`` study (7 environments, 40 iterations):
    4,800 entries (10,320 before) and 28 vectorized passes of 80 streams."""
    from repro.apps.registry import APPS
    from repro.core.study import StudyConfig, StudyRunner
    from repro.plan import ExecutionOptions

    envs = (
        "cpu-onprem-a", "cpu-parallelcluster-aws", "cpu-computeengine-g",
        "cpu-cyclecloud-az", "gpu-onprem-b", "gpu-computeengine-g", "gpu-cyclecloud-az",
    )
    config = StudyConfig(env_ids=envs, apps=tuple(APPS), iterations=40, seed=0)
    with tempfile.TemporaryDirectory() as cache, _draw_counts() as calls:
        StudyRunner(config, ExecutionOptions(cache_dir=cache)).run()
    assert calls == {"entries": 4800, "vectorized passes": 28, "vectorized streams": 2240}
