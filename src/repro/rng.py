"""Deterministic random-stream management.

Cloud studies are full of stochastic behaviour — provisioning failures,
run-to-run FOM variation, hookup jitter.  For reproducibility every
stochastic component draws from a :class:`numpy.random.Generator` derived
from a single study seed plus a *key path* naming the component, e.g.::

    rng = stream(seed, "aws", "eks", "lammps", 128, 3)

Identical key paths always yield identical streams, independent of the
order in which components are simulated, which keeps results stable when
experiments are run individually or as a full study.

The batched layer
-----------------

Constructing ``Generator(PCG64(SeedSequence(...)))`` costs tens of
microseconds — twice per simulated run if every run built its own run
and hookup generators.  :func:`stream_block` removes that cost for the
iteration axis of a group: it seeds every stream once, to its
post-seeding PCG64 ``(state, inc)`` pair as Python ints, and *injects*
a stream's pair into one reused bit generator (one per thread) whenever
it draws from that stream.  Seeding picks its path by size (:data:`NATIVE_SEED_MAX`):
a small block runs numpy's own ``SeedSequence(...).generate_state`` per
stream plus PCG64's two seeding LCG steps in int arithmetic, and a
larger one reproduces the SeedSequence entropy-pool hash and the LCG
steps with vectorized integer arithmetic over all its streams at once.

A block's seeded streams are one :class:`SeededStreams` object, which
blocks over the same streams share (the engine's per-cell memo hands it
to every app of a cell).  It carries one lazily widened ``(n, K)``
prefix of standard normals: :meth:`StreamBlock.normal` returns
``loc + scale * Z[:, :k]``, so only the first block that needs ``k``
columns enters the streams, and later blocks slice the prefix.  Three
facts keep every draw bit-identical to per-iteration :func:`stream`
calls, and ``tests/test_rng_block.py`` pins each one:

1. both seedings reproduce the post-seeding state of
   ``PCG64(SeedSequence(...))`` exactly;
2. numpy computes ``Generator.normal(loc, scale)`` as
   ``loc + scale * standard_normal()``, element by element, in order;
3. a stream's first ``k`` standard normals do not depend on how many
   more are drawn after them.

Log-normal draws are not rebuilt from the prefix (``np.exp`` can differ
from libm's ``exp`` in the last bit): :meth:`~StreamBlock.lognormal`,
:meth:`~StreamBlock.random` and :meth:`~StreamBlock.generator` enter
their streams.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from repro.errors import ConfigurationError

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes

#: the largest seed the streams tell apart: they hash ``seed & SEED_MAX``,
#: so seeds that differ only above bit 31 would draw the same numbers
#: (:func:`check_seeds` refuses them at the input boundary)
SEED_MAX = 0xFFFFFFFF


def check_seeds(seeds: range) -> None:
    """Refuse seeds outside ``0..SEED_MAX``.

    The keyed streams hash ``seed & SEED_MAX`` (:func:`stream`), so seed
    ``2**32`` would draw seed 0's numbers while cache keys and the
    kernels' own generators read the full value.  ``seeds`` is every
    seed a command runs at (an ensemble's replicas are consecutive).
    """
    if seeds and not (0 <= seeds[0] and seeds[-1] <= SEED_MAX):
        if len(seeds) == 1:
            raise ConfigurationError(f"seed must be in 0..{SEED_MAX} (got {seeds[0]})")
        raise ConfigurationError(
            f"replica seeds must be in 0..{SEED_MAX} (got {seeds[0]}..{seeds[-1]})"
        )


def _key_to_int(parts: tuple[Any, ...]) -> int:
    """Hash a heterogeneous key path to a 64-bit integer."""
    text = "\x1f".join(map(str, parts))
    return _from_bytes(_blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def stream(seed: int, *key: Any) -> np.random.Generator:
    """Return a generator unique to ``(seed, *key)``.

    Parameters
    ----------
    seed:
        Study-level seed.
    *key:
        Any hashable path components (strings, ints, enum values).

    The generator is ``PCG64`` seeded by the two-word entropy
    ``(seed, hash(key))`` — constructed directly (the hot path builds
    two generators per simulated run) but bit-identical to
    ``default_rng(SeedSequence([...]))`` on the same entropy.
    """
    return Generator(PCG64(SeedSequence((seed & SEED_MAX, _key_to_int(key)))))


def jitter(rng: np.random.Generator, scale: float) -> float:
    """A multiplicative noise factor centred on 1.0.

    ``scale`` is the coefficient of variation; draws are clipped to stay
    positive so timings never go negative.  Cloud environments get larger
    scales than on-prem fabrics.
    """
    return float(max(0.05, rng.normal(1.0, scale)))


def lognormal_jitter(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative log-normal noise with median 1.0.

    Used for queueing/hookup times whose distributions are right-skewed.
    """
    return float(rng.lognormal(mean=0.0, sigma=sigma))


# -- the batched layer --------------------------------------------------------

#: SeedSequence entropy-pool hash constants (numpy/random/bit_generator).
_XSHIFT = np.uint32(16)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF


def _hash_const_sequence(init: int, mult: int, count: int) -> tuple[np.uint32, ...]:
    """The data-independent hash-constant sequence of the pool hash.

    SeedSequence advances its hash constant once per hash *call*, never
    per data word — so the whole sequence is fixed and can be tabulated
    at import instead of recomputed (with overflowing scalar ops) per
    block.
    """
    out = []
    const = init
    for _ in range(count):
        const = (const * mult) & _M32
        out.append(np.uint32(const))
    return tuple(out)


#: mix_entropy performs 4 pool-fill hashes then 12 mixing hashes;
#: generate_state performs 8 output hashes (4 uint64 words)
_ENTROPY_CONSTS = _hash_const_sequence(_INIT_A, _MULT_A, 16)
_OUTPUT_CONSTS = _hash_const_sequence(_INIT_B, _MULT_B, 8)

#: the default PCG64 LCG multiplier (pcg64.h PCG_DEFAULT_MULTIPLIER_128)
#: as four 32-bit limbs, little-endian
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_LIMBS = tuple((_PCG_MULT >> (32 * k)) & _M32 for k in range(4))
_MASK_128 = (1 << 128) - 1
_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _limbs128(lo64: np.ndarray, hi64: np.ndarray) -> list[np.ndarray]:
    """Split (lo, hi) uint64 halves into four uint64-held 32-bit limbs."""
    return [lo64 & _U32, lo64 >> _SHIFT32, hi64 & _U32, hi64 >> _SHIFT32]


def _mul_add_128(a: list[np.ndarray], b: tuple[int, ...], c: list[np.ndarray]) -> list[np.ndarray]:
    """``(a * b + c) mod 2**128`` over 32-bit limb arrays.

    ``a``/``c`` are four uint64-held 32-bit limb arrays, ``b`` four
    constant limbs.  Column sums never overflow uint64 (each term is
    < 2**64 split into 32-bit halves before accumulating), so the whole
    LCG step vectorizes over every stream at once.
    """
    cols = [c[0].copy(), c[1].copy(), c[2].copy(), c[3].copy(), ]
    for i in range(4):
        ai = a[i]
        for j in range(4 - i):
            p = ai * np.uint64(b[j])
            cols[i + j] += p & _U32
            if i + j + 1 < 4:
                cols[i + j + 1] += p >> _SHIFT32
    out = []
    carry = np.zeros_like(cols[0])
    for k in range(4):
        total = cols[k] + carry
        out.append(total & _U32)
        carry = total >> _SHIFT32
    return out


def _seed_states(seed: int, keys: list[int]) -> tuple[list[int], list[int]]:
    """Post-seeding PCG64 ``(state, inc)`` ints, vectorized over streams.

    Reproduces, over all keys at once, exactly what
    ``PCG64(SeedSequence((seed & SEED_MAX, key)))`` computes:

    1. the SeedSequence entropy-pool hash (three uint32 entropy words —
       the 32-bit seed plus the lo/hi halves of the 64-bit key — mixed
       into a 4-word pool, then 8 output words drawn from it);
    2. the PCG64 seeding procedure — ``inc = initseq << 1 | 1`` and
       ``state = (inc + initstate) * MULT + inc`` (the two LCG steps of
       ``pcg64_srandom`` folded together) — as 32-bit limb arithmetic.

    Its cost is mostly a fixed ~180 µs of small ufunc calls, so it pays
    only above :data:`NATIVE_SEED_MAX` streams (:func:`_seed`).
    """
    key_ints = np.array(keys, dtype=np.uint64)
    n = len(key_ints)
    entropy = [
        np.full(n, np.uint32(seed & SEED_MAX)),
        (key_ints & _U32).astype(np.uint32),
        (key_ints >> _SHIFT32).astype(np.uint32),
    ]
    # hash(value): value ^= hash_const; hash_const *= MULT;
    # value *= hash_const — i.e. XOR with the *pre-advance* constant,
    # multiply by the post-advance one.  The fresh array each hash
    # returns is mutated in place afterwards (small-array ufunc-call
    # overhead dominates this path, so every saved temporary counts).
    pre = [np.uint32(_INIT_A)] + list(_ENTROPY_CONSTS[:-1])

    def _hash_at(value: np.ndarray, k: int) -> np.ndarray:
        value = value ^ pre[k]  # new array; in-place from here on
        value *= _ENTROPY_CONSTS[k]
        value ^= value >> _XSHIFT
        return value

    def _mix(x: np.ndarray, y_hashed: np.ndarray) -> np.ndarray:
        y_hashed *= _MIX_MULT_R  # consumes the hashed copy
        result = x * _MIX_MULT_L
        result -= y_hashed
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros(n, np.uint32)
    pool = [
        _hash_at(entropy[k] if k < len(entropy) else zero, k)
        for k in range(_POOL_SIZE)
    ]
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hash_at(pool[i_src], k))
                k += 1

    pre_out = [np.uint32(_INIT_B)] + list(_OUTPUT_CONSTS[:-1])
    words: list[np.ndarray] = []
    for i_dst in range(8):  # 4 uint64 seed words = 8 uint32 halves
        value = pool[i_dst % _POOL_SIZE] ^ pre_out[i_dst]
        value *= _OUTPUT_CONSTS[i_dst]
        value ^= value >> _XSHIFT
        words.append(value.astype(np.uint64))
    w64 = [words[2 * j] | (words[2 * j + 1] << _SHIFT32) for j in range(4)]

    # PCG64 seeding: inc = initseq << 1 | 1; state = (inc + s) * M + inc.
    one = np.uint64(1)
    inc_lo64 = (w64[3] << one) | one
    inc_hi64 = (w64[2] << one) | (w64[3] >> np.uint64(63))
    inc = _limbs128(inc_lo64, inc_hi64)
    s = _limbs128(w64[1], w64[0])
    acc = s
    # inc + s (mod 2**128), limbwise with carries
    carry = np.zeros(n, np.uint64)
    tot = []
    for limb_a, limb_b in zip(acc, inc):
        t = limb_a + limb_b + carry
        tot.append(t & _U32)
        carry = t >> _SHIFT32
    state = _mul_add_128(tot, _PCG_MULT_LIMBS, inc)
    state_lo = (state[0] | (state[1] << _SHIFT32)).tolist()
    state_hi = (state[2] | (state[3] << _SHIFT32)).tolist()
    return (
        [(hi << 64) | lo for hi, lo in zip(state_hi, state_lo)],
        [(hi << 64) | lo for hi, lo in zip(inc_hi64.tolist(), inc_lo64.tolist())],
    )


def _native_states(seed: int, keys: list[int]) -> tuple[list[int], list[int]]:
    """Post-seeding PCG64 ``(state, inc)`` ints, one stream at a time.

    ``PCG64(SeedSequence(entropy))`` seeds from the four uint64 words
    ``w = SeedSequence(entropy).generate_state(4, np.uint64)``:
    ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64 | w3``, then
    (``pcg64_srandom``) ``inc = initseq << 1 | 1`` and two LCG steps
    from state 0 give ``state = (inc + initstate) * MULT + inc``.  numpy
    hashes the entropy here; only the two LCG steps are int arithmetic.
    """
    seed &= SEED_MAX
    states, incs = [], []
    for key in keys:
        w0, w1, w2, w3 = SeedSequence((seed, key)).generate_state(4, np.uint64).tolist()
        inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK_128
        states.append(((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK_128)
        incs.append(inc)
    return states, incs


#: The seeding crossover: a pass over at most this many streams (a
#: co-seeded group counts all of its blocks) seeds natively
#: (:func:`_native_states`), a larger one vectorized (:func:`_seed_states`).
#: Both are exact, so this moves time only.  Measured on a 2-vCPU x86-64
#: VM (Python 3.11, numpy 2.4.6), best of 600 per size from 1 to 40
#: streams: native costs about 12 µs per stream, the vectorized pass
#: about 180 µs at every size, and they tie at 15 streams.
NATIVE_SEED_MAX = 15


def _seed(seed: int, keys: list[int]) -> tuple[list[int], list[int]]:
    """The ``(state, inc)`` ints of streams ``(seed, key)``, one seeding
    pass by the path their count selects."""
    if len(keys) <= NATIVE_SEED_MAX:
        return _native_states(seed, keys)
    return _seed_states(seed, keys)


class SeededStreams:
    """The seeded streams of one block, shared by the blocks that draw them.

    ``states[j]`` and ``incs[j]`` are stream ``j``'s post-seeding PCG64
    state and increment.  ``normals`` is the ``(n, K)`` prefix of each
    stream's standard normals drawn so far: ``K`` starts at 0 and only
    grows (:meth:`StreamBlock.normal`).  The object lives as long as
    its holder, an engine's per-cell memo or a single block.
    """

    __slots__ = ("states", "incs", "normals")

    def __init__(self, states: list[int], incs: list[int]):
        self.states = states
        self.incs = incs
        self.normals = np.empty((len(states), 0))


class StreamBlock:
    """The keyed per-iteration streams of one batched group.

    Stream ``j`` is exactly ``stream(seed, *key, iterations[j])``; the
    block seeds all of them in one pass (lazily, on first draw, or
    adopts an identical block's :class:`SeededStreams`) and replays each
    stream through a single reused :class:`~numpy.random.PCG64` by state
    injection.  Draw-gathering methods return one value (or row) per
    iteration, bit-identical to scalar draws from the per-iteration
    generators.

    Each stream's draws must be gathered **in one call** (sequential
    gathers would need a state save/restore per stream — if an app
    needs several noise factors per iteration, ask for them as one
    ``normal(loc, [cv1, cv2, ...])`` row).  A second whole-block gather
    raises; :meth:`generator` (one stream at a time, as the keyed
    preemption draws use it) is the escape hatch for arbitrary scalar
    draw sequences.  Normal gathers
    slice the shared standard-normal prefix; the others enter every
    stream.
    """

    __slots__ = ("seed", "key", "iterations", "_streams", "_drawn")

    def __init__(self, seed: int, key: tuple[Any, ...], iterations: Sequence[int] | np.ndarray):
        self.seed = seed
        self.key = key
        self.iterations = np.asarray(iterations, dtype=np.int64)
        self._streams: SeededStreams | None = None
        self._drawn = False

    def __len__(self) -> int:
        return len(self.iterations)

    def _keys(self) -> list[int]:
        # Key text for iteration i is "\x1f".join((*key, i)) — with an
        # empty key path the iteration stands alone, no separator.
        prefix = (
            ("\x1f".join(map(str, self.key)) + "\x1f").encode("utf-8")
            if self.key
            else b""
        )
        return [
            _from_bytes(_blake2b(prefix + str(i).encode("utf-8"), digest_size=8).digest(), "little")
            for i in self.iterations.tolist()
        ]

    def _seed_all(self) -> None:
        if self._streams is None:
            self._streams = SeededStreams(*_seed(self.seed, self._keys()))

    def seeded_states(self) -> SeededStreams:
        """This block's seeded streams, for an identical block to share.

        The run/hookup key paths name no application, so every app of a
        study cell draws the *same* streams; the engine seeds them once
        per cell and installs them into each app's block
        (:meth:`install_states`), normal prefix included.
        """
        self._seed_all()
        return self._streams

    def install_states(self, streams: SeededStreams) -> None:
        """Adopt an identical block's streams (from :meth:`seeded_states`)."""
        self._streams = streams

    def fresh(self) -> "StreamBlock":
        """An undrawn block over this block's seeded streams, normal
        prefix included: the next app of a cell draws from it."""
        block = StreamBlock(self.seed, self.key, self.iterations)
        block._streams = self.seeded_states()
        return block

    def _enter(self, j: int) -> Generator:
        """Point the shared generator at stream ``j``'s seeded state."""
        streams = self._streams
        scratch = _SCRATCH
        inner = scratch.inner
        inner["state"] = streams.states[j]
        inner["inc"] = streams.incs[j]
        scratch.bit_generator.state = scratch.state
        return scratch.generator

    def generator(self, j: int) -> Generator:
        """Stream ``j`` from its seeded start (shared object — draw from
        it before asking for another stream)."""
        self._seed_all()
        return self._enter(j)

    def _begin(self) -> int:
        if self._drawn:
            raise RuntimeError(
                "StreamBlock gathers each stream's draws in one pass; "
                "request all per-iteration draws in a single call"
            )
        self._seed_all()
        self._drawn = True
        return len(self.iterations)

    def _standard_normals(self, k: int) -> np.ndarray:
        """Each stream's first ``k`` standard normals, ``(n, k)``: a view
        of the shared prefix, widened first if it holds fewer columns
        (every stream re-entered and redrawn from its seeded start)."""
        streams = self._streams
        z = streams.normals
        if z.shape[1] < k:
            z = np.empty((len(z), k))
            for j in range(len(z)):
                self._enter(j).standard_normal(out=z[j])
            streams.normals = z
        return z[:, :k]

    def normal(self, loc: float, scale) -> np.ndarray:
        """One row of normal draws per iteration.

        ``scale`` may be a scalar (one draw per iteration → shape
        ``(n,)``) or a length-``k`` vector (``k`` sequential draws per
        iteration → shape ``(n, k)``, exactly the values ``k`` scalar
        ``rng.normal`` calls would produce in order).  Both are
        ``loc + scale * z`` over the streams' first standard normals,
        numpy's own arithmetic for ``Generator.normal``.
        """
        self._begin()
        scale = np.asarray(scale, dtype=np.float64)
        if np.signbit(scale).any():
            raise ValueError("scale < 0")
        if scale.ndim == 0:
            return loc + float(scale) * self._standard_normals(1)[:, 0]
        return loc + scale * self._standard_normals(len(scale))

    def lognormal(self, mean: float, sigma: float) -> np.ndarray:
        """One log-normal draw per iteration."""
        n = self._begin()
        enter = self._enter
        out = np.empty(n, dtype=np.float64)
        for j in range(n):
            out[j] = enter(j).lognormal(mean=mean, sigma=sigma)
        return out

    def random(self, k: int | None = None) -> np.ndarray:
        """Uniform [0, 1) draws: one per iteration, or ``k`` sequential
        draws per iteration (shape ``(n, k)``)."""
        n = self._begin()
        enter = self._enter
        if k is None:
            out = np.empty(n, dtype=np.float64)
            for j in range(n):
                out[j] = enter(j).random()
            return out
        out = np.empty((n, k), dtype=np.float64)
        for j in range(n):
            out[j] = enter(j).random(size=k)
        return out


class _Scratch(threading.local):
    """One scratch bit generator per thread for state injection.

    Every block *sets* the state before drawing, so blocks share it;
    threads may not, or one thread's injection lands between another's
    injection and its draw (studies run in threads of one process).  One
    reused state dict: the setter copies its values into the bit
    generator's C state, so mutating ``inner`` between entries is safe.
    """

    def __init__(self):
        self.bit_generator = PCG64(0)
        self.generator = Generator(self.bit_generator)
        self.inner = {"state": 0, "inc": 0}
        self.state = {
            "bit_generator": "PCG64", "state": self.inner, "has_uint32": 0, "uinteger": 0,
        }


_SCRATCH = _Scratch()


def co_seed(*blocks: StreamBlock) -> None:
    """Seed several same-seed blocks with one seeding pass.

    A group's run and hookup blocks seeded together pay one pass, and
    their total stream count picks its path (:data:`NATIVE_SEED_MAX`):
    the vectorized pass has a fixed per-call cost that dwarfs its
    per-stream cost for study-sized groups.  Blocks already seeded (or
    with differing study seeds) fall back to their own pass.
    """
    pending = [b for b in blocks if b._streams is None and len(b)]
    if not pending:
        return
    seed = pending[0].seed
    joint = [b for b in pending if b.seed == seed]
    key_lists = [b._keys() for b in joint]
    states, incs = _seed(seed, [key for keys in key_lists for key in keys])
    start = 0
    for block, keys in zip(joint, key_lists):
        stop = start + len(keys)
        block._streams = SeededStreams(states[start:stop], incs[start:stop])
        start = stop
    for block in pending:
        if block.seed != seed:
            block._seed_all()


def stream_block(seed: int, *key: Any, iterations: int | Sequence[int]) -> StreamBlock:
    """The batched form of :func:`stream` over a group's iteration axis.

    ``stream_block(seed, *key, iterations=n)`` covers iterations
    ``0..n-1``; passing a sequence covers exactly those iteration
    numbers (the engine's mixed cache-hit path simulates only the
    missing ones).  Stream ``j`` reproduces
    ``stream(seed, *key, iterations[j])`` bit for bit.
    """
    if isinstance(iterations, (int, np.integer)):
        iterations = range(int(iterations))
    return StreamBlock(seed, key, iterations)


def jitter_block(block: StreamBlock, scale: float) -> np.ndarray:
    """Vectorized :func:`jitter`: one clipped noise factor per iteration."""
    return np.maximum(0.05, block.normal(1.0, scale))


def lognormal_jitter_block(block: StreamBlock, sigma: float) -> np.ndarray:
    """Vectorized :func:`lognormal_jitter`: one factor per iteration."""
    return block.lognormal(0.0, sigma)
