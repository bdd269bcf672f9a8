"""Reversed primes: distribution in arithmetic progressions, Goldbach-type
representation counts, and circle-method instrumentation."""
