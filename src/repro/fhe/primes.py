"""NTT-friendly prime generation for the RNS-CKKS modulus chain.

The CKKS coefficient modulus Q is a product of distinct word-sized primes
q_i with q_i === 1 (mod 2N) so that the ring Z_qi[x]/(x^N + 1) supports the
negacyclic number-theoretic transform (paper section 2.2).
"""

from __future__ import annotations

import math

from .modmath import powmod

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Rho steps whose differences share one gcd in Brent's variant.
_GCD_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish integers.

    The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is proven
    deterministic for n < 3.3 * 10**24, far beyond our 54-bit primes.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(count: int, bits: int, ring_degree: int,
                        descending: bool = True) -> list[int]:
    """Generate ``count`` distinct primes of ``bits`` bits, === 1 mod 2N.

    Primes are scanned downward from ``2**bits`` (or upward from
    ``2**(bits-1)`` when ``descending`` is False), stepping by ``2N`` so
    every candidate already satisfies the congruence.
    """
    if count <= 0:
        return []
    step = 2 * ring_degree
    primes: list[int] = []
    if descending:
        # Largest multiple-of-step + 1 below 2**bits.
        candidate = ((1 << bits) - 2) // step * step + 1
        stride = -step
        limit = 1 << (bits - 1)
    else:
        candidate = (1 << (bits - 1)) // step * step + step + 1
        stride = step
        limit = 1 << bits
    while len(primes) < count:
        out_of_range = candidate <= limit if descending else candidate >= limit
        if out_of_range:
            raise ValueError(
                f"exhausted {bits}-bit primes === 1 mod {step}; "
                f"found {len(primes)} of {count}")
        if is_prime(candidate):
            primes.append(candidate)
        candidate += stride
    return primes


def find_primitive_root(q: int) -> int:
    """Find the smallest primitive root modulo prime ``q``."""
    factors = _factorize(q - 1)
    for g in range(2, q):
        if all(powmod(g, (q - 1) // p, q) != 1 for p in factors):
            return g
    raise ValueError(f"no primitive root found for {q}")


def primitive_nth_root(q: int, n: int) -> int:
    """Return a primitive n-th root of unity modulo prime ``q``.

    Requires ``n | q - 1`` (guaranteed for NTT primes with n <= 2N).
    """
    if (q - 1) % n != 0:
        raise ValueError(f"{n} does not divide {q} - 1")
    g = find_primitive_root(q)
    root = powmod(g, (q - 1) // n, q)
    # Defensive check: root has exact order n.
    if powmod(root, n // 2, q) == 1 if n % 2 == 0 else False:
        raise ArithmeticError("root does not have exact order n")
    return root


def _factorize(n: int) -> set[int]:
    """Set of prime factors of ``n >= 1``.

    The primes of :data:`_SMALL_PRIMES` are divided out first; what is
    left is proven prime by :func:`is_prime` or split by :func:`_rho`,
    and each part is treated the same way.  For a 54-bit NTT prime q,
    q - 1 keeps a prime factor of up to 41 bits, which trial division
    could only prove prime by trying every divisor up to its square
    root: about a million for the ten ``pw54`` moduli, 126 ms on one
    x86_64 core.  Miller-Rabin proves it in microseconds, and rho splits
    a composite part in about sqrt(p) steps, p its smallest prime
    factor: 422 steps and 0.8 ms for the same ten.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    factors: set[int] = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            factors.add(p)
            while n % p == 0:
                n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            factors.add(m)
        else:
            d = _rho(m)
            parts += [d, m // d]
    return factors


def _rho_step(x: int, c: int, n: int) -> int:
    """One step of the pseudo-random walk ``x -> x**2 + c (mod n)``."""
    return (x * x + c) % n


def _rho(n: int) -> int:
    """A factor d of the odd composite ``n``, 1 < d < n: Brent's variant
    of Pollard's rho, from x = 2 with c = 1, 2, ... until one splits n.

    The walk's cycle modulo an unknown prime factor p of n shows as
    ``gcd(x - y, n) > 1`` after about sqrt(p) steps; Brent's cycle
    search takes that gcd once per :data:`_GCD_BATCH` steps, over the
    product of their differences, and walks the last batch again one
    step at a time if the product took in every factor of n at once.
    """
    c = 1
    while True:
        y, r, product, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = _rho_step(y, c, n)
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_GCD_BATCH, r - k)):
                    y = _rho_step(y, c, n)
                    product = product * abs(x - y) % n
                g = math.gcd(product, n)
                k += _GCD_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = _rho_step(saved, c, n)
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g
        c += 1
