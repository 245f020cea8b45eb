"""Deterministic pseudo-random numbers for reproducible runs.

Every source of randomness in the library (synthetic data, weight
initialisation, benchmark clouds) flows through :class:`DetRng`, a
xoshiro256** generator whose state is seeded through splitmix64.  Both
algorithms use only 64-bit integer arithmetic, so a given seed produces
the same stream on every platform and interpreter, independent of numpy
version.

Constants follow the Blackman & Vigna reference implementations:

  splitmix64:   increment 0x9E3779B97F4A7C15,
                finalising multipliers 0xBF58476D1CE4E5B9 and
                0x94D049BB133111EB
  xoshiro256**: scrambler ``rotl(s1 * 5, 7) * 9``, shift 17,
                state rotation ``rotl(s3, 45)``

Every draw, one at a time or many, comes from a block of the stream
(``DetRng._block_draws``) that equals the one-at-a-time stream bit for
bit; only the tests keep a generator that steps one output at a time, as
the reference. The state step is linear over GF(2), so a 256x256 bit
matrix A maps a state to the next one, and A^S jumps S steps ahead
(Blackman & Vigna, arXiv:1805.01407). A block is cut into lanes whose
start states are S steps apart, and numpy steps all lanes at once with
wrapping uint64 arithmetic.

A block has a fixed cost of about S lane steps and one jump per lane,
so a caller that knows how many draws it is about to make can take them
as one block (``DetRng.reserve``), which the samplers and ``next_u64``
then consume in stream order. Reserving more or fewer draws than are
used changes only the speed, never an output.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_INV53 = 1.0 / (1 << 53)
_NO_DRAWS = np.empty(0, dtype=np.uint64)

# Lane spacings S of a block of n draws. A block costs about S numpy
# steps of all lanes (~8 us each) plus one jump per lane (~3.5 us), so
# short spacings suit small blocks; from 8192 draws on the long one is
# cheaper. Each spacing's jump table holds ~0.56 MB of Python ints.
_SHORT, _LONG, _LONG_FROM = 16, 256, 8192


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step. Returns (output, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


def _pack(words) -> int:
    """The state words (s0, s1, s2, s3) as one 256-bit int, s0 lowest."""
    s0, s1, s2, s3 = words
    return s0 | s1 << 64 | s2 << 128 | s3 << 192


def _advance(s0, s1, s2, s3, tmp, s1_out) -> None:
    """One xoshiro256** state step of uint64 lane arrays, in place. The
    new s1 goes to ``s1_out``, which may be ``s1``."""
    np.left_shift(s1, 17, out=tmp)
    s2 ^= s0
    s3 ^= s1
    np.bitwise_xor(s1, s2, out=s1_out)
    s0 ^= s3
    s2 ^= tmp
    np.left_shift(s3, 45, out=tmp)
    s3 >>= 19
    s3 |= tmp


@functools.cache
def _jump_table(spacing: int) -> list[list[int]]:
    """XOR lookup table of A^spacing on packed states: row b, entry v is
    the image of a state whose byte b is v and whose other bytes are 0.

    Column i of A^spacing is where the unit state e_i goes in
    ``spacing`` steps, so the 256 unit states are stepped as lanes.
    """
    bit = np.arange(256)
    s = np.zeros((4, 256), dtype=np.uint64)
    s[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    tmp = np.empty(256, dtype=np.uint64)
    for _ in range(spacing):
        _advance(*s, tmp, s[1])
    cols = [_pack(words) for words in s.T.tolist()]
    table = []
    for byte in range(32):
        row = [0] * 256
        for v in range(1, 256):
            # v's lowest set bit added to the entry for v without it
            row[v] = row[v & (v - 1)] ^ cols[8 * byte + (v & -v).bit_length() - 1]
        table.append(row)
    return table


def _jump(x: int, table: list[list[int]]) -> int:
    y = 0
    for row, byte in zip(table, x.to_bytes(32, "little")):
        y ^= row[byte]
    return y


def _below(x: np.ndarray, span):
    """``(x >> 11) * span >> 53`` for uint64 ``x`` and 1 <= span <= 2**64
    (an int or a uint64 array): the multiply-shift range reduction of
    :meth:`DetRng.integer`, computed exactly from 32-bit halves."""
    a1, a0 = x >> 43, x >> 11 & _MASK32
    s1, s0 = span >> 32, span & _MASK32
    mid = (a0 * s0 >> 32) + (a0 * s1 & _MASK32) + (a1 * s0 & _MASK32)
    high = a1 * s1 + (a0 * s1 >> 32) + (a1 * s0 >> 32) + (mid >> 32)
    return high << 11 | (mid & _MASK32) >> 21


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sqrt(-2 log u1) * cos(2 pi u2) elementwise. u1 lies in (0, 1], so
    log() stays finite. log and cos are math's, mapped over the values:
    numpy's SIMD log and cos may differ in the last bit across versions
    and CPUs. sqrt and the products are correctly rounded in numpy as in
    math, so each value has the bits of the scalar formula."""
    n = u1.size
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, n))
    return r * np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, n)


def reservations(counts: list[int], budget: int) -> list[int]:
    """What to ``reserve`` before each of a sequence of units that draw
    ``counts[i]`` outputs each: at the first unit of a run of whole
    consecutive units, the run's draws, and 0 elsewhere. A run holds at
    most ``budget`` draws; a unit past the budget alone reserves nothing
    and leaves each of its sampler calls to draw its own block."""
    out = [0] * len(counts)
    first = total = 0
    for i, n in enumerate(counts):
        if total + n > budget:
            first, total = i, 0
        if n > budget:
            first = i + 1
            continue
        total += n
        out[first] = total
    return out


def _count(sampler: str, n: int) -> int:
    if n < 0:
        raise ValueError(f"{sampler}(): n must be >= 0, got {n}")
    return n


class DetRng:
    """xoshiro256** stream with the samplers the library needs."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        state = []
        x = self._seed
        for _ in range(4):
            v, x = _splitmix64(x)
            state.append(v)
        if not any(state):
            # the all-zero state is a fixed point of the generator
            state[0] = 1
        self._s = state  # the state after the reserved block
        self._block = _NO_DRAWS  # reserved outputs; the next one at _at
        self._at = 0

    def spawn(self, tag: int) -> "DetRng":
        """Independent substream keyed by ``tag``.

        Depends only on the original seed and the tag, never on how much
        of the parent stream has been consumed.
        """
        mixed, _ = _splitmix64((self._seed ^ (int(tag) & _MASK64)) & _MASK64)
        child, _ = _splitmix64(mixed)
        return DetRng(child)

    def next_u64(self) -> int:
        """The next output, taken from the reserved block, or else from a
        block of one draw."""
        return int(self._draws(1)[0])

    def reserve(self, n: int) -> None:
        """Draw the next n outputs now, as one block; the samplers and
        ``next_u64`` take them in stream order before drawing more. A
        block of n draws holds no array of more than n values (rounded up
        to a whole lane spacing)."""
        left = self._block[self._at :]
        if _count("reserve", n) > left.size:
            more = self._block_draws(n - left.size)
            self._block, self._at = (np.concatenate([left, more]) if left.size else more), 0

    def _draws(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array: the rest of the reserved
        block first, then a block drawn for the remainder."""
        head = self._block[self._at : self._at + n]
        self._at += head.size
        if self._at == self._block.size:
            self._block, self._at = _NO_DRAWS, 0
        if head.size == n:
            return head
        rest = self._block_draws(n - head.size)
        return np.concatenate([head, rest]) if head.size else rest

    def _block_draws(self, n: int) -> np.ndarray:
        """The n outputs after the reserved block as a uint64 array; the
        state is left n steps further on.

        Output l*S + t is step t of lane l, which starts from the current
        state jumped l*S steps ahead.
        """
        if n == 0:
            return _NO_DRAWS
        spacing = _LONG if n >= _LONG_FROM else _SHORT
        lanes = -(-n // spacing)
        steps = min(n, spacing)
        starts = [_pack(self._s)]
        for _ in range(lanes - 1):
            starts.append(_jump(starts[-1], _jump_table(spacing)))
        packed = np.frombuffer(b"".join(x.to_bytes(32, "little") for x in starts), dtype="<u8")
        s0, s1, s2, s3 = np.array(packed.reshape(lanes, 4).T, dtype=np.uint64, order="C")
        ones = np.empty((steps, lanes), dtype=np.uint64)  # s1 of every step
        ones[0] = s1
        tmp, s1_end = np.empty(lanes, dtype=np.uint64), np.empty(lanes, dtype=np.uint64)
        last = n - (lanes - 1) * spacing  # steps the last lane contributes
        for t in range(steps):
            s1_next = ones[t + 1] if t + 1 < steps else s1_end
            _advance(s0, ones[t], s2, s3, tmp, s1_next)
            if t + 1 == last:
                self._s = [int(s0[-1]), int(s1_next[-1]), int(s2[-1]), int(s3[-1])]
        # scrambled in place: a block holds at most two arrays of n values
        x = ones.T.reshape(-1)[:n]  # a copy, as ones is transposed
        del ones
        x *= np.uint64(5)
        out = x << 7
        x >>= 57
        out |= x
        out *= np.uint64(9)
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """One double in [lo, hi). 53 uniform mantissa bits."""
        u = (self.next_u64() >> 11) * _INV53
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self._draws(_count("uniforms", n)) >> 11) * _INV53
        return lo + (hi - lo) * u

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return float(self.normals(1, mu, sigma)[0])

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Box-Muller over pairs of draws (u1 from the first, u2 from the
        second), one normal per pair."""
        d = self._draws(2 * _count("normals", n)) >> 11
        return mu + sigma * _box_muller((d[0::2] + 1) * _INV53, d[1::2] * _INV53)

    def integer(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi). Multiply-shift range reduction."""
        if hi <= lo:
            raise ValueError("integer(): need lo < hi")
        span = hi - lo
        return lo + ((self.next_u64() >> 11) * span >> 53)

    def integers(self, n: int, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            raise ValueError(f"integers(): need lo < hi, got lo={lo}, hi={hi}")
        return lo + _below(self._draws(_count("integers", n)), hi - lo).view(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n): for i = n-1 down to 1, swap
        i with ``integer(0, i + 1)``."""
        spans = np.arange(_count("permutation", n), 1, -1, dtype=np.uint64)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), _below(self._draws(spans.size), spans).tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
