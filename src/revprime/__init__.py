"""Reversed primes: distribution in arithmetic progressions, Goldbach-type
representation counts, and circle-method instrumentation."""

from .arithmetic import (
    TWIN_PRIME_CONSTANT,
    ZETA2,
    admissible_exp_sum,
    mobius,
    ramanujan_sum,
    singular_series_binary,
    singular_series_k,
    singular_series_squarefree,
    singular_series_ternary,
    singular_series_ternary_divisor_sum,
    totient,
)
from .circle import (
    ArcPartition,
    ExpSumEvaluator,
    WeaklyDigitalSeed,
    build_arcs,
    congruence_reversal_seed,
    exp_sum,
    exp_sum_evaluator,
    gamma_sigma,
    major_arc_residual,
    minor_arc_probe,
    parseval_check,
    weyl_ratio,
)
from .digits import (
    Base,
    count_coprime_leading,
    residue_admissible,
    reverse,
    reverse_padded,
)
from .errors import (
    CacheChecksumError,
    CacheError,
    CacheFormatError,
    CacheVersionError,
    CrossCheckError,
    ModulusRangeWarning,
    ResourceLimitError,
)
from .progressions import (
    APResult,
    ClassCounts,
    weighted_count_by_length,
    weighted_count_up_to,
    weighted_count_window,
    weighted_counts_up_to,
    window_partition_check,
)
from .representations import (
    RepresentationProfile,
    composition_count,
    convolve,
    count_exceptional_evens,
    exceptional_evens,
    reach_step,
    representation_count,
)
from .schnirelmann import (
    GapReport,
    MinKResult,
    min_k_representation,
    primorial,
    scan_min_k,
    verify_gap,
)
from .sieve import (
    PrimeTable,
    ReversedPrimeRecord,
    WeightedSequence,
    cache_load,
    cache_store,
    enumerate_reversed_primes,
    get_prime_table,
    reversed_prime_arrays,
    sieve_primes,
    weighted_indicator,
)

__version__ = "0.1.0"
