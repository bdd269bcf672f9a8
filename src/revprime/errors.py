"""Shared exception types."""


class ResourceLimitError(Exception):
    """A request exceeds a hard memory or size ceiling (CLI exit code 3)."""


class CrossCheckError(RuntimeError):
    """Two independent computations of one quantity disagree (CLI exit code 1)."""


class CacheError(Exception):
    """Base class for prime-table cache failures."""


class CacheFormatError(CacheError):
    """Cache file has a bad magic string or inconsistent layout."""


class CacheVersionError(CacheError):
    """Cache file was written by an incompatible format version."""


class CacheChecksumError(CacheError):
    """Cache file payload does not match its trailing checksum."""


class ModulusRangeWarning(UserWarning):
    """Progression modulus exceeds the practical guard q <= b^(L/4).

    The asymptotic main term is only trustworthy for small moduli; results
    are still computed, but the ratio may be far from 1.
    """
