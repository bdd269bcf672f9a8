"""Prime generation and reversed-prime enumeration.

sieve_progression is the one segmented sieve of Eratosthenes, on one
thread, over a progression start + step i.  Each segment holds SEGMENT_ODDS
entries (1 MB of bool, small enough to stay in L2 while every base prime
crosses it) and starts as a slice of one presieved pattern of the WHEEL
primes 3..17 that do not divide step, which would otherwise make almost
half of all the strided writes; only the base primes past the wheel then
cross it off.  A PrimeTable is the odd-number primality mask of the
progression 1 + 2i, and a shared table is grown by sieving only the
segments past its limit.

indicator_support is the one registry of the dense sequences over 0..x,
and MAX_SEQUENCE_LEN = 2^31 the one ceiling on their length and on every
sieve, which check_length tests at each call.

The table and the directory of the disk cache are held by the Session
bound by `with Session(...)` (the CLI binds one per command); a prime read
outside any raises LookupError.  The session keeps no reversed-prime build:
each reversed_prime_arrays call builds its own from the table.  With a
cache directory, the session's first table read loads `prime_table.bin`
from it (a smaller table there is grown, not re-sieved), and every sieve
of the table is stored back, so the file holds the largest table sieved so
far; a computation that reads no prime, or sieves none, writes nothing.

Reversed primes are enumerated prime-side, one digit length L at a time
(primes are much sparser than integers).  The reverse of a prime leads with
the prime's last digit d, so the sources of the n with leading digit d are
one class mod b, and the top block of a cutoff x is read only for the d up
to x's leading digit; its n past x are dropped as soon as they are
reversed, so a build holds every reversed prime up to x and none past it.
A class is read straight from the odd mask, one entry in b/2 (b even) or
in b (b odd), when the table reaches b^L - 1; each strided view is read
once, as a contiguous copy, for its hits.  When it does not, the top block
sieves its classes itself, one progression each, keeping only their hits,
if that takes fewer segment passes than growing the table to b^L - 1; the
table is then taken only to b^(L-1) - 1, and the classes sieved are not
stored.  Each block is reversed and sorted in place in its slot of the n
column; reversal preserves digit length, so the blocks in order are
globally increasing.  A build keeps three columns, n, weight = log(p) and
coprime, 17 bytes an entry: the source primes p are a local of the build,
dropped once the weights are taken, and the one reader of p, `enumerate`,
rebuilds them as reverse(n) one digit-length block at a time, 2^16 entries
at a time.  The coprime column is one lookup by n mod the product of the
small primes dividing b^3 - b.

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
from contextvars import ContextVar, Token
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import factorize
from .digits import Base, coprime_leading_intervals, digit_length, reverse_block
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
MAX_SEQUENCE_LEN = 1 << 31  # every dense sequence over 0..x, and every sieve, is one allocation
SEGMENT_ODDS = 1 << 20  # odd numbers per sieving segment: 1 MB of bool, inside L2
WHEEL = (3, 5, 7, 11, 13, 17)  # presieved into every segment


@dataclass
class PrimeTable:
    """Primality of all n <= limit, stored as a mask over odd numbers."""

    limit: int
    odd_mask: np.ndarray  # bool; odd_mask[i] is the primality of 2i + 1

    def primes(self, limit: int | None = None) -> np.ndarray:
        """All primes <= limit (default: the full table), increasing."""
        limit = self.limit if limit is None else min(limit, self.limit)
        if limit < 2:
            return np.empty(0, dtype=np.int64)
        odd = 2 * np.flatnonzero(self.odd_mask[: (limit + 1) // 2]).astype(np.int64) + 1
        return np.concatenate((np.array([2], dtype=np.int64), odd))


def check_length(x: int, what: str) -> None:
    """Refuse a dense sequence over 0..x past the one length ceiling."""
    if x >= MAX_SEQUENCE_LEN:
        raise ResourceLimitError(f"{what}, of length {brief(x + 1)}, exceeds the {MAX_SEQUENCE_LEN} ceiling")


def _sieve_bytes(limit: int) -> int:
    return (limit + 1) // 2


def _wheel_pattern(start: int, step: int, length: int) -> np.ndarray:
    """Entries 0..length-1 of the progression start + step i with the
    multiples of the WHEEL primes w not dividing step (w itself included)
    cleared: w divides start + step i at one i mod w.  Periodic in i, with
    period the product of those w (prod(WHEEL) = 255255 for the odd
    numbers, start 1 and step 2)."""
    pattern = np.ones(length, dtype=bool)
    for w in WHEEL:
        if step % w:
            pattern[-start * pow(step, -1, w) % w :: w] = False
    return pattern


def _sievers(root: int) -> np.ndarray:
    """The primes past the wheel up to root, increasing (int64)."""
    odd = _wheel_pattern(1, 2, (root + 1) // 2)
    for p in range(WHEEL[-1] + 2, root + 1, 2):
        if odd[p >> 1]:
            odd[(p * p) >> 1 :: p] = False
    return 2 * np.flatnonzero(odd[WHEEL[-1] // 2 + 1 :]) + WHEEL[-1] + 2


def sieve_progression(
    start: int, step: int, count: int, *, first: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Segmented sieve of Eratosthenes over the progression start + step i,
    first <= i < count, with start >= 1 and gcd(start, step) = 1.

    Each segment of SEGMENT_ODDS entries starts as a slice of the presieved
    wheel pattern of the progression and is then crossed off by the primes
    past the wheel that do not divide step, up to the first whose square
    lies beyond it; each crosses off its multiples from the first entry at
    least its square.  With `out`, an array of count entries, entry i is
    set to the primality of start + step i and out is returned.  Without,
    the segments pass through one scratch buffer and only the increasing
    indices i of the primes are kept and returned (int64)."""
    top = start + step * max(count - 1, 0)
    sievers = _sievers(math.isqrt(top))
    sievers = sievers[step % sievers != 0]  # they divide no entry
    squares = sievers * sievers  # increasing
    # entry i is a multiple of p iff i = roots mod p; low is the first entry >= p^2
    roots = np.array([-start * pow(step, -1, p) % p for p in sievers.tolist()], dtype=np.int64)
    low = np.maximum(-((start - squares) // step), 0)
    steps = sievers.tolist()
    # the wheel pattern clears the wheel primes themselves, and 1 is not prime
    fixes = [((w - start) // step, True) for w in WHEEL if w >= start and (w - start) % step == 0]
    fixes += [(0, False)] if start == 1 else []

    period = math.prod(w for w in WHEEL if step % w)
    # segment lo needs lo % period + (hi - lo) entries, at most either bound
    pattern = _wheel_pattern(start, step, min(period + SEGMENT_ODDS, first % period + count - first))
    buffer = out if out is not None else np.empty(min(SEGMENT_ODDS, max(count - first, 0)), dtype=bool)
    hits = []
    for lo in range(first, count, SEGMENT_ODDS):
        hi = min(lo + SEGMENT_ODDS, count)
        segment = out[lo:hi] if out is not None else buffer[: hi - lo]
        off = lo % period
        segment[:] = pattern[off : off + hi - lo]
        n = int(np.searchsorted(squares, start + step * (hi - 1), side="right"))  # p^2 inside
        at = np.maximum(low[:n], lo)
        firsts = at + (roots[:n] - at) % sievers[:n] - lo
        for p, i in zip(steps, firsts.tolist()):
            segment[i::p] = False
        for i, prime in fixes:
            if lo <= i < hi:
                segment[i - lo] = prime
        if out is None:
            hits.append(np.flatnonzero(segment) + lo)
    if out is not None:
        return out
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)


def sieve_primes(limit: int, *, extend: PrimeTable | None = None) -> PrimeTable:
    """Segmented odd-only sieve of Eratosthenes up to `limit` inclusive: the
    progression 1 + 2i of sieve_progression.  With `extend`, a table of a
    lower limit, its mask is copied as the prefix and only the odd numbers
    above its limit are sieved."""
    if not 2 <= limit < MAX_SEQUENCE_LEN:
        raise ResourceLimitError(
            f"sieve limit {brief(limit)} outside [2, {MAX_SEQUENCE_LEN}), the length ceiling "
            f"(mask would need {brief(_sieve_bytes(max(limit, 2)))} bytes)"
        )
    size = _sieve_bytes(limit)
    odd = np.empty(size, dtype=bool)
    start = 0
    if extend is not None:
        start = min(len(extend.odd_mask), size)
        odd[:start] = extend.odd_mask[:start]
    return PrimeTable(limit, sieve_progression(1, 2, size, first=start, out=odd))


# ---------------------------------------------------------------------------
# Reversed primes
# ---------------------------------------------------------------------------

@dataclass
class ReversedPrimeArrays:
    """Columnar form of a reversed-prime enumeration, sorted by n: 17 bytes
    an entry.  The source prime p = reverse(n) is not kept; a reader
    rebuilds it with reverse_block, within one digit length of n."""

    base: Base
    n: np.ndarray  # int64, strictly increasing
    weight: np.ndarray  # float64, log(p) for p = reverse(n)
    coprime: np.ndarray  # bool, gcd(n, b^3 - b) == 1

    def __len__(self) -> int:
        return len(self.n)

    def coprime_only(self) -> "ReversedPrimeArrays":
        keep = np.flatnonzero(self.coprime)  # one index gather beats two boolean masks
        return ReversedPrimeArrays(
            self.base, self.n.take(keep), self.weight.take(keep), np.ones(len(keep), dtype=bool),
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


def _block_classes(L: int, x: int, base: Base) -> list[tuple[int, int]]:
    """The sources of the L-digit block (L >= 2) whose reverse can be at
    most x, one (p0, count) per leading digit d of n, d in
    1..min(x // b^(L-1), b - 1) with gcd(d, b) = 1: the odd p = d mod b in
    [b^(L-1), b^L) are p0 + lcm(2, b) j for 0 <= j < count.  An L-digit
    prime shares no factor with b, and p = b ends in 0."""
    b, step = base.b, math.lcm(2, base.b)
    lo = b ** (L - 1)
    classes = []
    for d in range(1, min(x // lo, b - 1) + 1):
        if math.gcd(d, b) == 1:
            p0 = lo + d if (lo + d) % 2 else lo + d + b  # the least odd p = d mod b
            classes.append((p0, -((p0 - b**L) // step)))
    return classes


def _build_blocks(x: int, base: Base, table: PrimeTable) -> ReversedPrimeArrays:
    """Every reversed prime n <= x.

    Block L holds the n with L digits, in increasing order, after the blocks
    below it.  The 1-digit block is the primes p <= min(x, b - 1), n = p.
    For L >= 2, n leads with the last digit d of its source p, so block L is
    read class by class (_block_classes), for d up to b - 1, or up to x's
    leading digit in the top block.  A block the table covers is read
    from the odd mask, one strided view per class, each read once, as a
    contiguous copy (numpy finds the nonzero entries of a strided view
    several times slower); a block past the table's limit, the top block
    only, sieves each class on its own (sieve_progression).  A block's p
    are reversed into n, the top block's n past x are dropped, n is sorted
    in place, and p is put in n's order as reverse(n), which is exact
    because n's last digit is p's leading digit.  Each class's hits are
    kept until every block is counted, so the local p and n are filled in
    place, with no per-block parts to join.  The weights are log(p) over
    the whole of p, which is then dropped: the build keeps n, weight and
    coprime."""
    b = base.b
    L_max = _max_block_length(x, base)
    step = math.lcm(2, b)  # between odd p = d mod b
    small = table.primes(min(x, b - 1))
    blocks = []  # (L, [(class hits, first p)]) for L >= 2
    for L in range(2, L_max + 1):
        classes = _block_classes(L, x, base)
        if b**L - 1 <= table.limit:
            views = [(np.flatnonzero(table.odd_mask[p0 // 2 : b**L // 2 : step // 2].copy()), p0)
                     for p0, _ in classes]
        else:
            views = [(sieve_progression(p0, step, count), p0) for p0, count in classes]
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
            np.multiply(hits, step, out=p[pos : pos + count])
            p[pos : pos + count] += p0
            pos += count
        del hits  # every block has the view d = 1
        block = reverse_block(p[start:pos], L, base)
        if L == L_max:  # the top block, the last in n: only its n <= x are kept
            block = block[block <= x]
            pos = start + len(block)
        n[start:pos] = block
        del block
        n[start:pos].sort()
        p[start:pos] = reverse_block(n[start:pos], L, base)
    n = n[:pos]
    weight = np.log(p[:pos], dtype=np.float64)
    del p  # before the coprime temporaries; reverse(n) gives it back
    # gcd(n, b^3 - b) = 1 iff no prime q dividing b - 1, b or b + 1 divides
    # n: one lookup by n mod M, M the product of the least of them while
    # M <= 2^16, then a division test by each one left that is at most x
    shared = sorted(set().union(*(factorize(m) for m in (b - 1, b, b + 1))))
    M, unit = 1, np.ones(1, dtype=bool)
    while shared and M * shared[0] <= 1 << 16:
        q = shared.pop(0)
        M, unit = M * q, np.tile(unit, q)
        unit[::q] = False  # the multiples of q, and unit keeps those of the primes before it
    rest = n // M * M  # numpy multiplies the temporary in place
    coprime = unit[np.subtract(n, rest, out=rest)]  # unit[n mod M], in one temporary
    for q in shared:
        if q > x:
            break
        coprime &= n // q * q != n
    return ReversedPrimeArrays(base, n, weight, coprime)


def _source_table(x: int, bound: int, base: Base) -> PrimeTable:
    """The session's table for a build up to x, whose top block has digit
    length L and sources up to bound = b^L - 1 (at least 2).

    A table that covers bound serves every block.  Otherwise the top block
    sieves its own classes and the table is requested to b^(L-1) - 1 only,
    when that takes fewer segment passes (each one Python loop over the
    sievers, the cost at these sizes) than growing the table from its limit,
    or from b^(L-1) - 1, to bound; else the table grows to bound in one
    request.  The cache file is loaded before either is counted."""
    table = _session_table()
    if table is not None and table.limit >= bound:
        return table
    L = _max_block_length(x, base)
    if L < 2:
        return get_prime_table(bound)
    below = base.b ** (L - 1) - 1
    have = below if table is None else max(below, table.limit)
    grow = -(-(_sieve_bytes(bound) - _sieve_bytes(have)) // SEGMENT_ODDS)
    classes = sum(-(-count // SEGMENT_ODDS) for _, count in _block_classes(L, x, base))
    return get_prime_table(max(below, 2) if classes < grow else bound)


def reversed_prime_source_bound(x: int, base: Base) -> int:
    """Sieve limit b^L - 1 (at least 2) that reversed primes up to x need:
    L is the top block length of x, and that block's sources reach b^L - 1.

    The ceilings of reversed_prime_arrays, which any caller can check
    before it reads a prime: check_length refuses an x past the length
    ceiling, and so a sieve past it too (x > 10^9 in base 10), whose odd
    mask alone would take a gigabyte."""
    check_length(x, "reversed-prime sequence")
    bound = max(2, base.b ** _max_block_length(x, base) - 1)
    check_length(bound, f"the sieve to {brief(bound)} for reversed primes up to {x}")
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

    Each call builds every n up to x from the bound session's prime table;
    the session keeps no build, so the build is freed once the caller drops
    it.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    bound = reversed_prime_source_bound(x, base)
    out = _build_blocks(x, base, _source_table(x, bound, base))
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
    """(n, w): the members n <= x of a set, increasing, and their weights.

    kind = "prime":                   primes n, w = log n
    kind = "reversed_prime_coprime":  reversed primes n with gcd(n, b^3 - b)
                                      = 1, w = log(reverse(n)) (the log of
                                      the source prime, not of n itself)
    kind = "reversed_prime":          the same without the gcd filter
    kind = "all":                     every n >= 1, w = 1
    kind = "B_set":                   the n whose leading digit is coprime
                                      to b, w = 1

    Every kind refuses x < 1 and x past the length ceiling before it reads
    a prime or allocates."""
    if x < 1:
        raise ValueError("x must be >= 1")
    check_length(x, "indicator")
    if kind == "prime":
        ps = get_prime_table(max(x, 2)).primes(x)
        return ps, np.log(ps.astype(np.float64))
    if kind == "all":
        return np.arange(1, x + 1, dtype=np.int64), np.ones(x, dtype=np.float64)
    if kind not in ("reversed_prime", "reversed_prime_coprime", "B_set"):
        raise ValueError(f"unknown indicator kind {kind!r}")
    if base is None:
        raise ValueError(f"base is required for {kind} indicators")
    if kind == "B_set":
        runs = coprime_leading_intervals(x, base)
        n = np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in runs])
        return n, np.ones(len(n), dtype=np.float64)
    arrays = reversed_prime_arrays(x, base, require_coprime=kind == "reversed_prime_coprime")
    return arrays.n, arrays.weight


def _indicator(x: int, kind: str, base: Base | None, dtype) -> np.ndarray:
    # the support first: it refuses x and sources past the ceiling before
    # the dense array is allocated
    n, weight = indicator_support(x, kind, base)
    w = np.zeros(x + 1, dtype=dtype)
    w[n] = weight  # a bool mask stores True for each (positive) weight
    return w


def weighted_indicator(x: int, kind: str, base: Base | None = None) -> WeightedSequence:
    """Weighted indicator array w[0..x] of a kind of indicator_support: its
    weights at its members, 0 elsewhere."""
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

@dataclass(slots=True)
class Session:
    """The prime table that the library reads while `with` binds it, and
    its cache directory (or none)."""

    cache_dir: str | None = None
    table: PrimeTable | None = field(default=None, init=False)
    _token: Token | None = field(default=None, init=False, repr=False, compare=False)

    def __enter__(self) -> "Session":
        self._token = _current.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _current.reset(self._token)


_current: ContextVar[Session] = ContextVar("session")  # no default: a read outside any session fails


def _session_table() -> PrimeTable | None:
    """The bound session's table.  With a cache directory and no table
    yet, the directory is created and its `prime_table.bin` loaded (a file
    of another format version counts as no file; other cache errors
    propagate).  An OSError becomes a CacheError."""
    s = _current.get()
    if s.table is None and s.cache_dir:
        path = os.path.join(s.cache_dir, "prime_table.bin")
        try:
            os.makedirs(s.cache_dir, exist_ok=True)
            if os.path.exists(path):
                try:
                    s.table = cache_load(path)
                except CacheVersionError:
                    pass
        except OSError as exc:
            raise CacheError(f"cache directory {s.cache_dir}: {exc}") from exc
    return s.table


def get_prime_table(limit: int) -> PrimeTable:
    """Return a table covering `limit` from the bound session, grown by
    sieving only past its limit (a limit that adds no odd number is only
    raised); with a cache directory, every sieve is stored there.  Raises
    LookupError outside any session, and CacheError for an OSError."""
    s = _current.get()
    table = _session_table()
    if table is not None and table.limit >= limit:
        return table
    if table is not None and len(table.odd_mask) == _sieve_bytes(limit):  # no odd number to add
        s.table = PrimeTable(limit, table.odd_mask)
        return s.table
    s.table = sieve_primes(limit, extend=table)
    if s.cache_dir:
        try:
            cache_store(os.path.join(s.cache_dir, "prime_table.bin"), s.table)
        except OSError as exc:
            raise CacheError(f"cache directory {s.cache_dir}: {exc}") from exc
    return s.table
