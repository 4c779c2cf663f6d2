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
microseconds — twice per simulated run, which dominates the scalar
per-iteration path.  :func:`stream_block` removes that cost for the
iteration axis of a group: it reproduces NumPy's seeding pipeline with
vectorized integer arithmetic (the :class:`~numpy.random.SeedSequence`
entropy-pool hash over all iterations at once, then the PCG64 seeding
LCG steps as 128-bit Python-int math) and *injects* each iteration's
post-seeding state into one reused bit generator.  Every iteration's
draw sequence is unchanged — the same PCG64 state produces the same
bits — so block draws are bit-identical to per-iteration
:func:`stream` calls (``tests/test_rng_block.py`` pins this), at about
a tenth of the construction cost.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes


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
    return Generator(PCG64(SeedSequence((seed & 0xFFFFFFFF, _key_to_int(key)))))


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


def _seed_states(seed: int, key_ints: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Post-seeding PCG64 states for ``(seed, key)`` streams, vectorized.

    Reproduces, over all keys at once, exactly what
    ``PCG64(SeedSequence((seed & 0xFFFFFFFF, key)))`` computes:

    1. the SeedSequence entropy-pool hash (three uint32 entropy words —
       the 32-bit seed plus the lo/hi halves of the 64-bit key — mixed
       into a 4-word pool, then 8 output words drawn from it);
    2. the PCG64 seeding procedure — ``inc = initseq << 1 | 1`` and
       ``state = (inc + initstate) * MULT + inc`` (the two LCG steps of
       ``pcg64_srandom`` folded together) — as 32-bit limb arithmetic.

    Returns ``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 arrays; the
    128-bit Python ints the state-injection dict needs are assembled
    per stream only when a stream is actually entered.
    """
    n = len(key_ints)
    entropy = [
        np.full(n, np.uint32(seed & 0xFFFFFFFF)),
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
    state_lo = state[0] | (state[1] << _SHIFT32)
    state_hi = state[2] | (state[3] << _SHIFT32)
    return state_hi, state_lo, inc_hi64, inc_lo64


class StreamBlock:
    """The keyed per-iteration streams of one batched group.

    Stream ``j`` is exactly ``stream(seed, *key, iterations[j])``; the
    block seeds all of them in one vectorized pass (lazily, on first
    draw) and replays each stream through a single reused
    :class:`~numpy.random.PCG64` by state injection.  Draw-gathering
    methods return one value (or row) per iteration, bit-identical to
    scalar draws from the per-iteration generators.

    Each stream's draws must be gathered **in one call** (sequential
    gathers would need a state save/restore per stream — if an app
    needs several noise factors per iteration, ask for them as one
    ``normal(loc, [cv1, cv2, ...])`` row).  A second whole-block gather
    raises; :meth:`generator` (the per-iteration fallback path) is the
    escape hatch for arbitrary scalar draw sequences.
    """

    __slots__ = (
        "seed", "key", "iterations",
        "_state_hi", "_state_lo", "_inc_hi", "_inc_lo",
        "_bg", "_gen", "_dict", "_drawn",
    )

    def __init__(self, seed: int, key: tuple[Any, ...], iterations: Sequence[int] | np.ndarray):
        self.seed = seed
        self.key = key
        self.iterations = np.asarray(iterations, dtype=np.int64)
        self._bg: PCG64 | None = None
        self._gen: Generator | None = None
        self._drawn = False

    def __len__(self) -> int:
        return len(self.iterations)

    def _key_ints(self) -> np.ndarray:
        # Key text for iteration i is "\x1f".join((*key, i)) — with an
        # empty key path the iteration stands alone, no separator.
        prefix = (
            ("\x1f".join(map(str, self.key)) + "\x1f").encode("utf-8")
            if self.key
            else b""
        )
        return np.fromiter(
            (
                _from_bytes(
                    _blake2b(prefix + str(i).encode("utf-8"), digest_size=8).digest(),
                    "little",
                )
                for i in self.iterations
            ),
            dtype=np.uint64,
            count=len(self.iterations),
        )

    def _install(self, state_hi, state_lo, inc_hi, inc_lo) -> None:
        """Attach seeded per-stream states (from :func:`co_seed` or
        :meth:`_seed_all`) and the shared scratch generator."""
        self._state_hi, self._state_lo = state_hi, state_lo
        self._inc_hi, self._inc_lo = inc_hi, inc_lo
        self._bg, self._gen = _scratch_generator()
        # One reused state-injection dict; the setter copies the values
        # into the bit generator's C state, so mutating it is safe.
        self._dict = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _seed_all(self) -> None:
        if self._bg is not None:
            return
        self._install(*_seed_states(self.seed, self._key_ints()))

    def seeded_states(self):
        """The per-stream seeded states, for reuse by an identical block.

        The run/hookup key paths name no application, so every app of a
        study cell re-derives the *same* streams; the engine seeds them
        once and installs the states into each app's block
        (:meth:`install_states`).  The arrays are read-only shared state
        — blocks only ever inject copies into the scratch generator.
        """
        self._seed_all()
        return (self._state_hi, self._state_lo, self._inc_hi, self._inc_lo)

    def install_states(self, states) -> None:
        """Adopt previously seeded states (from :meth:`seeded_states`)."""
        self._install(*states)

    def _enter(self, j: int) -> Generator:
        """Point the shared generator at stream ``j``'s seeded state."""
        inner = self._dict["state"]
        inner["state"] = (int(self._state_hi[j]) << 64) | int(self._state_lo[j])
        inner["inc"] = (int(self._inc_hi[j]) << 64) | int(self._inc_lo[j])
        self._bg.state = self._dict
        return self._gen

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

    def normal(self, loc: float, scale) -> np.ndarray:
        """One row of normal draws per iteration.

        ``scale`` may be a scalar (one draw per iteration → shape
        ``(n,)``) or a length-``k`` vector (``k`` sequential draws per
        iteration → shape ``(n, k)``, exactly the values ``k`` scalar
        ``rng.normal`` calls would produce in order).
        """
        n = self._begin()
        scale = np.asarray(scale, dtype=np.float64)
        gen, enter = self._gen, self._enter
        if scale.ndim == 0:
            scale = float(scale)
            out = np.empty(n, dtype=np.float64)
            for j in range(n):
                enter(j)
                out[j] = gen.normal(loc, scale)
            return out
        out = np.empty((n, len(scale)), dtype=np.float64)
        for j in range(n):
            enter(j)
            out[j] = gen.normal(loc, scale)
        return out

    def lognormal(self, mean: float, sigma: float) -> np.ndarray:
        """One log-normal draw per iteration."""
        n = self._begin()
        gen, enter = self._gen, self._enter
        out = np.empty(n, dtype=np.float64)
        for j in range(n):
            enter(j)
            out[j] = gen.lognormal(mean=mean, sigma=sigma)
        return out

    def random(self, k: int | None = None) -> np.ndarray:
        """Uniform [0, 1) draws: one per iteration, or ``k`` sequential
        draws per iteration (shape ``(n, k)``)."""
        n = self._begin()
        gen, enter = self._gen, self._enter
        if k is None:
            out = np.empty(n, dtype=np.float64)
            for j in range(n):
                enter(j)
                out[j] = gen.random()
            return out
        out = np.empty((n, k), dtype=np.float64)
        for j in range(n):
            enter(j)
            out[j] = gen.random(size=k)
        return out


#: one process-wide scratch bit generator for state injection — every
#: block *sets* the state before drawing, so sharing is safe for the
#: single-threaded simulation loop (each worker process gets its own)
_SCRATCH: tuple[PCG64, Generator] | None = None


def _scratch_generator() -> tuple[PCG64, Generator]:
    global _SCRATCH
    if _SCRATCH is None:
        bg = PCG64(SeedSequence(0))
        _SCRATCH = (bg, Generator(bg))
    return _SCRATCH


def co_seed(*blocks: StreamBlock) -> None:
    """Seed several same-seed blocks with one vectorized pass.

    The entropy-pool hash has a fixed per-call overhead that dwarfs the
    per-stream cost for study-sized groups; a group's run and hookup
    blocks seeded together pay it once.  Blocks already seeded (or with
    differing study seeds) fall back to their own pass.
    """
    pending = [b for b in blocks if b._bg is None and len(b)]
    if not pending:
        return
    seed = pending[0].seed
    joint = [b for b in pending if b.seed == seed]
    key_arrays = [b._key_ints() for b in joint]
    parts = _seed_states(seed, np.concatenate(key_arrays))
    start = 0
    for block, keys in zip(joint, key_arrays):
        stop = start + len(keys)
        block._install(*(p[start:stop] for p in parts))
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
