"""Prime generation and reversed-prime enumeration.

A PrimeTable is an odd-number primality mask built by a segmented sieve of
Eratosthenes on one thread.  Each segment holds SEGMENT_ODDS odd numbers
(1 MB of bool, small enough to stay in L2 while every base prime crosses it)
and starts as a slice of one presieved pattern of the WHEEL primes 3..17,
which would otherwise make almost half of all the strided writes; only the
base primes past the wheel then cross it off.  A shared table is grown by
sieving only the segments past its limit.

The table, one reversed-prime build per base and the directory of the disk
cache are held by one Session, `session`, which the library reads at each
call.  With a cache directory, the session's first table miss loads
`prime_table.bin` from it (a smaller table there is grown, not re-sieved),
and every sieve is stored back, so the file holds the largest table built
so far; a computation that reads no prime never touches it.

Reversed primes are enumerated prime-side, one digit length L at a time
(primes are much sparser than integers, and a table to b^L is needed for
the primality tests anyway).  The reverse of a prime leads with
the prime's last digit d, so the sources of the n with leading digit d are
read straight from the odd mask, one entry in b/2 (b even) or in b (b odd),
and the top block of a cutoff x is read only for the d up to x's leading
digit: that gives every reversed prime up to the end of x's leading-digit
group and none past it.  Each strided view is read once, as a contiguous
copy, for its hits.  Each block is reversed and sorted in place in its slot
of the output columns; reversal preserves digit length, so the blocks in
order are globally increasing.  The coprime column is one lookup by n mod
the product of the small primes dividing b^3 - b.

The disk cache layout is:

    bytes 0..15   magic "REVPRIME-SIEVE\\0\\0"
    bytes 16..19  u32 version (= 2), little-endian
    bytes 20..27  u64 limit, little-endian
    ...           odd-number bitset, LSB-first within each byte
                  (bit i of the stream is the primality of 2i + 1)
    last 8 bytes  u64 holding the CRC-32 (zlib.crc32) of everything before
                  it, little-endian

Version 1 files had a 64-bit FNV-1a checksum in the same 8 bytes; loading
one raises CacheVersionError before any checksum is read.
"""

from __future__ import annotations

import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import factorize
from .digits import Base, digit_length, reverse_block
from .errors import (
    CacheChecksumError,
    CacheError,
    CacheFormatError,
    CacheVersionError,
    ResourceLimitError,
    brief,
)

CACHE_MAGIC = b"REVPRIME-SIEVE\x00\x00"
CACHE_VERSION = 2
MAX_SIEVE_LIMIT = 1 << 38
MAX_SEQUENCE_LEN = 1 << 31  # dense weight arrays live in one allocation
SEGMENT_ODDS = 1 << 20  # odd numbers per sieving segment: 1 MB of bool, inside L2
WHEEL = (3, 5, 7, 11, 13, 17)  # presieved into every segment


@dataclass
class PrimeTable:
    """Primality of all n <= limit, stored as a mask over odd numbers."""

    limit: int
    odd_mask: np.ndarray  # bool; odd_mask[i] is the primality of 2i + 1

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise ValueError(f"{n} exceeds table limit {self.limit}")
        if n < 2:
            return False
        if n % 2 == 0:
            return n == 2
        return bool(self.odd_mask[n >> 1])

    def primes(self, limit: int | None = None) -> np.ndarray:
        """All primes <= limit (default: the full table), increasing."""
        limit = self.limit if limit is None else min(limit, self.limit)
        if limit < 2:
            return np.empty(0, dtype=np.int64)
        odd = 2 * np.flatnonzero(self.odd_mask[: (limit + 1) // 2]).astype(np.int64) + 1
        return np.concatenate((np.array([2], dtype=np.int64), odd))

    def count(self, limit: int | None = None) -> int:
        limit = self.limit if limit is None else min(limit, self.limit)
        if limit < 2:
            return 0
        return 1 + int(np.count_nonzero(self.odd_mask[: (limit + 1) // 2]))


def _sieve_bytes(limit: int) -> int:
    return (limit + 1) // 2


def _wheel_pattern(length: int) -> np.ndarray:
    """Odd-mask entries 0..length-1 with the odd multiples of the WHEEL
    primes (the primes themselves included) cleared; periodic in the index
    with period prod(WHEEL) = 255255."""
    pattern = np.ones(length, dtype=bool)
    for p in WHEEL:
        pattern[p >> 1 :: p] = False  # index i holds 2i + 1 = p (2m + 1)
    return pattern


def sieve_primes(limit: int, *, extend: PrimeTable | None = None) -> PrimeTable:
    """Segmented odd-only sieve of Eratosthenes up to `limit` inclusive.

    Each segment of SEGMENT_ODDS odd numbers starts as a copy of the
    presieved wheel pattern and is then crossed off by the base primes past
    the wheel, up to the first whose square lies beyond it.  With `extend`,
    a table of a lower limit, its mask is copied as the prefix and only the
    odd numbers above its limit are sieved."""
    if not 2 <= limit <= MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {brief(limit)} outside [2, {MAX_SIEVE_LIMIT}] "
            f"(mask would need {brief(_sieve_bytes(max(limit, 2)))} bytes)"
        )
    size = _sieve_bytes(limit)
    odd = np.empty(size, dtype=bool)
    start = 0
    if extend is not None:
        start = min(len(extend.odd_mask), size)
        odd[:start] = extend.odd_mask[:start]

    root = math.isqrt(limit)
    base = _wheel_pattern((root + 1) // 2)
    for p in range(WHEEL[-1] + 2, root + 1, 2):
        if base[p >> 1]:
            base[(p * p) >> 1 :: p] = False
    sievers = 2 * np.flatnonzero(base[WHEEL[-1] // 2 + 1 :]) + WHEEL[-1] + 2
    squares = sievers * sievers >> 1  # the index of p^2, increasing
    steps = sievers.tolist()

    period = math.prod(WHEEL)
    # segment lo needs lo % period + (hi - lo) entries, at most either bound
    pattern = _wheel_pattern(min(period + SEGMENT_ODDS, start % period + size - start))
    for lo in range(start, size, SEGMENT_ODDS):
        hi = min(lo + SEGMENT_ODDS, size)
        off = lo % period
        odd[lo:hi] = pattern[off : off + hi - lo]
        n = int(np.searchsorted(squares, hi))  # the sievers with p^2 inside
        # the first i >= lo with p | 2i + 1 is lo + (p // 2 - lo) mod p; the
        # index of p^2 is also p // 2 mod p, so p starts at the larger one
        firsts = np.maximum(squares[:n], lo + (sievers[:n] // 2 - lo) % sievers[:n])
        for p, i in zip(steps, firsts.tolist()):
            odd[i:hi:p] = False
    for p in WHEEL:
        if p <= limit:
            odd[p >> 1] = True
    odd[0] = False  # 1 is not prime
    return PrimeTable(limit, odd)


# ---------------------------------------------------------------------------
# Reversed primes
# ---------------------------------------------------------------------------

@dataclass
class ReversedPrimeArrays:
    """Columnar form of a reversed-prime enumeration, sorted by n."""

    base: Base
    x: int
    n: np.ndarray  # int64, strictly increasing
    p: np.ndarray  # int64, reverse(n)
    weight: np.ndarray  # float64, log(p)
    coprime: np.ndarray  # bool, gcd(n, b^3 - b) == 1

    def __len__(self) -> int:
        return len(self.n)

    def restrict(self, x: int) -> "ReversedPrimeArrays":
        cut = int(np.searchsorted(self.n, x, side="right"))
        return ReversedPrimeArrays(
            self.base, x, self.n[:cut], self.p[:cut],
            self.weight[:cut], self.coprime[:cut],
        )

    def coprime_only(self) -> "ReversedPrimeArrays":
        keep = np.flatnonzero(self.coprime)  # one index gather beats three boolean masks
        return ReversedPrimeArrays(
            self.base, self.x, self.n.take(keep), self.p.take(keep),
            self.weight.take(keep), np.ones(len(keep), dtype=bool),
        )


def _max_block_length(x: int, base: Base) -> int:
    """Largest digit length L whose block can contain a reversed prime <= x.

    An L-digit reversed prime exceeds b^(L-1) strictly (its last digit is
    the leading digit of the source prime, hence nonzero), so block L
    contributes only when b^(L-1) < x.
    """
    L = 0
    while base.b**L < x:
        L += 1
    return L


def _group_end(x: int, base: Base) -> int:
    """End X = (d + 1) b^(L-1) - 1 of x's leading-digit group: L is the top
    block length of x and d <= b - 1 the leading digit of x in L digits
    (X = 0 for x = 1, which needs no block).  X >= x unless x = b^L, which
    is not a reversed prime."""
    L = _max_block_length(x, base)
    if L == 0:
        return 0
    unit = base.b ** (L - 1)
    return (min(x // unit, base.b - 1) + 1) * unit - 1


def _build_blocks(X: int, base: Base, table: PrimeTable) -> ReversedPrimeArrays:
    """Every reversed prime n <= X, for X a group end (see _group_end).

    Block L holds the n with L digits, in increasing order, after the blocks
    below it.  The 1-digit block is the primes p <= min(X, b - 1), n = p.
    For L >= 2, n leads with the last digit d of its source p, so block L is
    read from the odd mask only at the p ending in d, one strided view per
    d in 1..top with gcd(d, b) = 1 (top = b - 1, or X's leading digit in the
    top block): an L-digit prime shares no factor with b, and p = b ends
    in 0.  A block's p are reversed into n, n is sorted in place, and p is
    taken back as reverse(n), which is exact because n's last digit is p's
    leading digit.  Each view is read once, as a contiguous copy (numpy
    finds the nonzero entries of a strided view several times slower), and
    its hits are kept until every block is counted, so n and p are filled
    in place, with no per-block parts to join."""
    b = base.b
    L_max = _max_block_length(X + 1, base)  # the digit length of X (0 for X = 0)
    stride = b // 2 if b % 2 == 0 else b  # index step between odd p = d mod b
    small = table.primes(min(X, b - 1))
    blocks = []  # (L, [(view hits, first p)]) for L >= 2
    for L in range(2, L_max + 1):
        lo = b ** (L - 1)
        top = X // lo if L == L_max else b - 1
        views = []
        for d in range(1, top + 1):
            if math.gcd(d, b) == 1:
                p0 = lo + d if (lo + d) % 2 else lo + d + b  # the least odd p = d mod b
                view = table.odd_mask[p0 // 2 : b**L // 2 : stride]
                views.append((np.flatnonzero(view.copy()), p0))
        blocks.append((L, views))
    total = len(small) + sum(len(hits) for _, views in blocks for hits, _ in views)
    n = np.empty(total, dtype=np.int64)
    p = np.empty(total, dtype=np.int64)
    n[: len(small)] = p[: len(small)] = small
    pos = len(small)
    for L, views in blocks:
        start = pos
        while views:  # a view's hits are dropped once they are in p
            hits, p0 = views.pop()
            count = len(hits)
            np.multiply(hits, 2 * stride, out=p[pos : pos + count])
            p[pos : pos + count] += p0
            pos += count
        del hits  # every block has the view d = 1
        n[start:pos] = reverse_block(p[start:pos], L, base)
        n[start:pos].sort()
        p[start:pos] = reverse_block(n[start:pos], L, base)
    weight = np.log(p, dtype=np.float64)
    # gcd(n, b^3 - b) = 1 iff no prime q dividing b - 1, b or b + 1 divides
    # n: one lookup by n mod M, M the product of the least of them while
    # M <= 2^16, then a division test by each one left that is at most X
    shared = sorted(set().union(*(factorize(m) for m in (b - 1, b, b + 1))))
    M, unit = 1, np.ones(1, dtype=bool)
    while shared and M * shared[0] <= 1 << 16:
        q = shared.pop(0)
        M, unit = M * q, np.tile(unit, q)
        unit[::q] = False  # the multiples of q, and unit keeps those of the primes before it
    rest = n // M * M  # numpy multiplies the temporary in place
    coprime = unit[np.subtract(n, rest, out=rest)]  # unit[n mod M], in one temporary
    for q in shared:
        if q > X:
            break
        coprime &= n // q * q != n
    return ReversedPrimeArrays(base, X, n, p, weight, coprime)


def reversed_prime_source_bound(x: int, base: Base) -> int:
    """Sieve limit b^L - 1 (at least 2) that reversed primes up to x need:
    L is the top block length of x, and that block's sources reach b^L - 1.

    The ceilings of reversed_prime_arrays, which any caller can check
    before it reads a prime: an x of MAX_SEQUENCE_LEN or more is refused,
    and so is an x whose sources need a sieve to MAX_SEQUENCE_LEN or more
    (x > 10^9 in base 10), whose odd mask alone would take a gigabyte."""
    if x >= MAX_SEQUENCE_LEN:
        raise ResourceLimitError(
            f"reversed primes up to {brief(x)} exceed the {MAX_SEQUENCE_LEN} ceiling"
        )
    bound = max(2, base.b ** _max_block_length(x, base) - 1)
    if bound >= MAX_SEQUENCE_LEN:
        raise ResourceLimitError(
            f"reversed primes up to {x} need a sieve to {bound}, past the {MAX_SEQUENCE_LEN} ceiling"
        )
    return bound


def check_block_length(L: int, base: Base) -> None:
    """Refuse a digit length L whose reversed primes' sources need a sieve
    to b^L - 1 >= MAX_SEQUENCE_LEN, that is, an L of at least the ceiling's
    digit count: decided without taking b^L, since L may be huge."""
    if L >= digit_length(MAX_SEQUENCE_LEN, base):
        raise ResourceLimitError(
            f"{brief(L)}-digit reversed primes in base {base.b} need a sieve to "
            f"b^L - 1, past the {MAX_SEQUENCE_LEN} ceiling"
        )


def reversed_prime_arrays(x: int, base: Base, require_coprime: bool = False) -> ReversedPrimeArrays:
    """All reversed primes n <= x in base b, as sorted columnar arrays.

    n ranges over integers with nonzero last digit whose digital reverse is
    prime; equivalently n = reverse(p) over primes p with nonzero last digit.
    With require_coprime, keep only gcd(n, b^3 - b) = 1.  An x past the
    ceilings of reversed_prime_source_bound is refused before any prime is
    read.

    Each build covers n up to the end X of x's leading-digit group
    (_group_end).  The build of base b is kept in `session.builds[b]`, whose
    `.x` is that X: a later call with a group end at most X is cut from it,
    a larger one rebuilds up to its own group end.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    bound = reversed_prime_source_bound(x, base)
    X = _group_end(x, base)
    full = session.builds.get(base.b)
    if full is None or full.x < X:
        full = _build_blocks(X, base, get_prime_table(bound))
        session.builds[base.b] = full
    out = full.restrict(x)
    return out.coprime_only() if require_coprime else out


# ---------------------------------------------------------------------------
# Weighted indicator sequences
# ---------------------------------------------------------------------------

@dataclass
class WeightedSequence:
    """Dense array of non-negative weights indexed 0..x (weights[0] = 0)."""

    kind: str
    weights: np.ndarray  # float64
    error_bound: float = 0.0  # a-posteriori bound carried through FFT paths

    def __len__(self) -> int:
        return len(self.weights)


def indicator_support(x: int, kind: str, base: Base | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(n, w): the members n <= x of a set, increasing, and their log weights.

    kind = "prime":                   primes n, w = log n
    kind = "reversed_prime_coprime":  reversed primes n with gcd(n, b^3 - b)
                                      = 1, w = log(reverse(n)) (the log of
                                      the source prime, not of n itself)
    kind = "reversed_prime":          the same without the gcd filter
    """
    if kind == "prime":
        ps = get_prime_table(max(x, 2)).primes(x)
        return ps, np.log(ps.astype(np.float64))
    if kind in ("reversed_prime", "reversed_prime_coprime"):
        if base is None:
            raise ValueError("base is required for reversed-prime indicators")
        coprime = kind == "reversed_prime_coprime"
        arrays = reversed_prime_arrays(x, base, require_coprime=coprime)
        return arrays.n, arrays.weight
    raise ValueError(f"unknown indicator kind {kind!r}")


def _indicator(x: int, kind: str, base: Base | None, dtype) -> np.ndarray:
    if x < 1:
        raise ValueError("x must be >= 1")
    if x >= MAX_SEQUENCE_LEN:
        raise ResourceLimitError(
            f"indicator of length {brief(x + 1)} exceeds the {MAX_SEQUENCE_LEN} ceiling"
        )
    # the support first: it refuses sources past the sieve ceiling before
    # the dense array is allocated
    n, weight = indicator_support(x, kind, base)
    w = np.zeros(x + 1, dtype=dtype)
    w[n] = weight  # a bool mask stores True for each (positive) log
    return w


def weighted_indicator(x: int, kind: str, base: Base | None = None) -> WeightedSequence:
    """Log-weighted indicator array w[0..x] of a kind of indicator_support."""
    return WeightedSequence(kind, _indicator(x, kind, base, np.float64))


def indicator_mask(x: int, kind: str, base: Base | None = None) -> np.ndarray:
    """Boolean mask over 0..x of a kind of indicator_support."""
    return _indicator(x, kind, base, bool)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

def _pack_mask(mask: np.ndarray) -> bytes:
    return np.packbits(mask, bitorder="little").tobytes()


def _unpack_mask(raw: bytes | memoryview, count: int) -> np.ndarray:
    raw = np.frombuffer(raw, dtype=np.uint8)
    return np.unpackbits(raw, count=count, bitorder="little").view(bool)


def cache_store(path: str | os.PathLike, table: PrimeTable) -> None:
    """Write a PrimeTable to disk: to a unique temp file in the same
    directory (mode 0o666 less the umask, as open() gives), renamed into
    place, so a crashed or concurrent writer never leaves a partial file or
    blocks the next one.  A SIGKILLed writer's `<name>.*.tmp` file stays."""
    path = os.fspath(path)
    payload = (
        CACHE_MAGIC
        + CACHE_VERSION.to_bytes(4, "little")
        + table.limit.to_bytes(8, "little")
        + _pack_mask(table.odd_mask)
    )
    checksum = zlib.crc32(payload).to_bytes(8, "little")
    umask = os.umask(0)
    os.umask(umask)
    head, tail = os.path.split(path)
    fd, tmp_path = tempfile.mkstemp(suffix=".tmp", prefix=tail + ".", dir=head or ".")
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0o600
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.write(checksum)
            fh.flush()
            os.fsync(fh.fileno())  # the rename must never expose unwritten data
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def cache_load(path: str | os.PathLike) -> PrimeTable:
    """Read a PrimeTable back, validating magic, version, and checksum (in
    that order, so a file of another format version is reported as such)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CACHE_MAGIC) + 4 + 8 + 8:
        raise CacheFormatError(f"{path}: file too short for a cache header")
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic string")
    off = len(CACHE_MAGIC)
    version = int.from_bytes(data[off : off + 4], "little")
    if version != CACHE_VERSION:
        raise CacheVersionError(f"{path}: version {version}, expected {CACHE_VERSION}")
    payload, stored = memoryview(data)[:-8], int.from_bytes(data[-8:], "little")
    if zlib.crc32(payload) != stored:
        raise CacheChecksumError(f"{path}: checksum mismatch")
    limit = int.from_bytes(payload[off + 4 : off + 12], "little")
    count = _sieve_bytes(limit)
    raw = payload[off + 12 :]
    if len(raw) != (count + 7) // 8:
        raise CacheFormatError(f"{path}: bitset length {len(raw)} does not match limit {limit}")
    return PrimeTable(limit, _unpack_mask(raw, count))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """The prime table and the per-base reversed-prime builds that the
    library shares, and the directory of their disk cache (none if empty)."""

    cache_dir: str | None = None
    table: PrimeTable | None = None
    builds: dict[int, ReversedPrimeArrays] = field(default_factory=dict)


session = Session()  # the one the library reads; the CLI gives each command its own


def get_prime_table(limit: int) -> PrimeTable:
    """Return a table covering `limit` from the session, growing it by
    sieving only past its limit.

    With a cache directory, the first miss creates the directory and loads
    its `prime_table.bin` (a file of another format version counts as no
    file; other cache errors propagate), and every sieve is stored there.
    An OSError becomes a CacheError."""
    s = session
    if s.table is not None and s.table.limit >= limit:
        return s.table
    path = os.path.join(s.cache_dir, "prime_table.bin") if s.cache_dir else None
    try:
        if s.table is None and path:
            os.makedirs(s.cache_dir, exist_ok=True)
            if os.path.exists(path):
                try:
                    s.table = cache_load(path)
                except CacheVersionError:
                    pass
        if s.table is None or s.table.limit < limit:
            s.table = sieve_primes(limit, extend=s.table)
            if path:
                cache_store(path, s.table)
    except OSError as exc:
        raise CacheError(f"cache directory {s.cache_dir}: {exc}") from exc
    return s.table
