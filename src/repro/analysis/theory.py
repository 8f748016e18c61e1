"""Closed-form models used to anchor the simulators.

Every formula here has a published source and a matching simulation in the
test suite; when a simulator and its formula disagree beyond statistical
noise, the simulator is wrong.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError


def harmonic_number(n: int) -> float:
    """The harmonic number ``H(n) = sum_{j=1..n} 1/j``.

    >>> round(harmonic_number(99), 4)
    5.1774
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return sum(1.0 / j for j in range(1, n + 1))


def dhb_saturation_bandwidth(n_segments: int) -> float:
    """DHB's average bandwidth plateau at high request rates.

    Under sustained load DHB transmits segment ``S_j`` once every ``j``
    slots ("the protocol will never schedule more than one instance of
    segment S_i once every i slots"), so the average stream count converges
    to ``H(n)`` — about 5.18 streams for the 99 segments of Figure 7.
    """
    return harmonic_number(n_segments)


def optimal_patching_window(rate_per_second: float, duration: float) -> float:
    """Patching window that minimises the expected server cost rate.

    For Poisson arrivals at rate λ and a video of length ``D``, a renewal
    cycle consists of one complete stream (cost ``D``) plus one patch of
    expected length ``w/2`` for each of the ``λ w`` requests landing inside
    the window, and ends ``1/λ`` after the window closes.  Minimising

    ``cost(w) = (D + λ w²/2) / (w + 1/λ)``

    gives the classic result ``w* = (sqrt(1 + 2 λ D) - 1) / λ``.  The
    window tends to 0 as λ grows, and that limit is returned when
    ``2 λ D`` is not finite (an infinite rate, or a product that
    overflows), where the closed form would give NaN.

    >>> round(optimal_patching_window(0.0, 7200.0), 1)
    7200.0
    >>> optimal_patching_window(math.inf, 7200.0)
    0.0
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    if rate_per_second == 0:
        # No sharing is possible; any window up to D behaves identically.
        return duration
    product = 2.0 * rate_per_second * duration
    if not math.isfinite(product):
        return 0.0
    return (math.sqrt(1.0 + product) - 1.0) / rate_per_second


def patching_cost_rate(
    rate_per_second: float, duration: float, window: float = -1.0
) -> float:
    """Expected server bandwidth (streams) of threshold patching.

    ``window < 0`` selects the optimal window.  The unit is concurrent
    streams of the video consumption rate, directly comparable to Figure 7's
    y-axis.

    >>> patching_cost_rate(0.0, 7200.0)
    0.0
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    if rate_per_second == 0:
        return 0.0
    if window < 0:
        window = optimal_patching_window(rate_per_second, duration)
    lam = rate_per_second
    return (duration + lam * window**2 / 2.0) / (window + 1.0 / lam)


def batching_cost_rate(rate_per_second: float, duration: float, window: float) -> float:
    """Expected server bandwidth (streams) of window batching.

    A batch opens on the first request and is served one complete stream
    after ``window`` seconds; the next cycle starts with the next arrival,
    ``1/λ`` later in expectation.
    """
    if duration <= 0 or window < 0:
        raise ConfigurationError("need duration > 0 and window >= 0")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    if rate_per_second == 0:
        return 0.0
    return duration / (window + 1.0 / rate_per_second)


def evz_lower_bound(
    rate_per_second: float, duration: float, wait: float = 0.0
) -> float:
    """Eager–Vernon–Zahorjan lower bound on on-demand delivery bandwidth.

    The minimum average server bandwidth of *any* protocol that starts every
    client within ``wait`` seconds is ``ln(1 + D / (wait + 1/λ))`` streams
    [Eager, Vernon & Zahorjan 1999] — the paper's Section 3 notes DHB's
    scheduling rule "is not very different from that used in [6] to derive a
    lower bound".  Two limits sanity-check it: as λ → ∞ it approaches the
    harmonic bound ``ln(D/wait) ~ H(D/wait)``; with ``wait = 0`` it is
    ``ln(1 + λD)``.

    >>> round(evz_lower_bound(0.1, 7200.0, wait=0.0), 2)
    6.58
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if wait < 0:
        raise ConfigurationError(f"wait must be >= 0, got {wait}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    if rate_per_second == 0:
        return 0.0
    return math.log(1.0 + duration / (wait + 1.0 / rate_per_second))


def suffix_saturation_bandwidth(n_segments: int, prefix_segments: int) -> float:
    """Origin saturation bandwidth for clients holding a cached prefix.

    A client that already has segments ``1..k`` joins the broadcast needing
    only the suffix; under sustained load DHB still transmits segment
    ``S_j`` at most once every ``j`` slots, so the plateau over segments
    ``k+1..n`` is ``H(n) - H(k)`` streams.  ``k = 0`` recovers
    :func:`dhb_saturation_bandwidth`; ``k = n`` costs the origin nothing.

    >>> round(suffix_saturation_bandwidth(99, 0), 4)
    5.1774
    >>> suffix_saturation_bandwidth(99, 99)
    0.0
    """
    if n_segments < 1:
        raise ConfigurationError(f"n must be >= 1, got {n_segments}")
    if not 0 <= prefix_segments <= n_segments:
        raise ConfigurationError(
            f"prefix must be in [0, {n_segments}], got {prefix_segments}"
        )
    if prefix_segments == 0:
        return harmonic_number(n_segments)
    return harmonic_number(n_segments) - harmonic_number(prefix_segments)


def edge_backbone_savings_bound(
    probabilities, prefixes, n_segments: int
) -> float:
    """Analytic fraction of backbone bandwidth an edge cache can save.

    At saturation the pure origin spends ``H(n)`` streams per title; with
    per-title cached prefixes ``k_i`` it spends ``H(n) - H(k_i)``, so the
    popularity-weighted savings fraction is
    ``sum(p_i * H(k_i)) / H(n)`` — the scalable-VoD-style upper bound the
    budget study overlays on its measured curve.  Measured savings land
    below it because real load is finite (the origin is not saturated for
    every title) and deferrals shift joins.

    >>> edge_backbone_savings_bound([1.0], [0], 99)
    0.0
    >>> round(edge_backbone_savings_bound([1.0], [99], 99), 4)
    1.0
    """
    if n_segments < 1:
        raise ConfigurationError(f"n must be >= 1, got {n_segments}")
    if len(probabilities) != len(prefixes):
        raise ConfigurationError(
            f"{len(probabilities)} shares for {len(prefixes)} prefixes"
        )
    saving = 0.0
    for p, k in zip(probabilities, prefixes):
        if p < 0:
            raise ConfigurationError("title shares must be >= 0")
        if not 0 <= k <= n_segments:
            raise ConfigurationError(
                f"prefix must be in [0, {n_segments}], got {k}"
            )
        if k > 0:
            saving += p * harmonic_number(k)
    return saving / harmonic_number(n_segments)


def evz_suffix_lower_bound(
    rate_per_second: float,
    duration: float,
    prefix_seconds: float,
    wait: float = 0.0,
) -> float:
    """EVZ lower bound when the first ``prefix_seconds`` come from a cache.

    With the prefix served locally, any origin protocol effectively delivers
    a video of length ``D - prefix`` to clients that tolerate an extra
    ``prefix`` seconds of origin startup slack, so the bound becomes
    ``ln(1 + (D - prefix) / (prefix + wait + 1/λ))``.  ``prefix = 0``
    recovers :func:`evz_lower_bound`.

    >>> evz_suffix_lower_bound(0.1, 7200.0, 7200.0)
    0.0
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if not 0 <= prefix_seconds <= duration:
        raise ConfigurationError(
            f"prefix must be in [0, {duration}], got {prefix_seconds}"
        )
    if wait < 0:
        raise ConfigurationError(f"wait must be >= 0, got {wait}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    if rate_per_second == 0 or prefix_seconds == duration:
        return 0.0
    return math.log(
        1.0
        + (duration - prefix_seconds)
        / (prefix_seconds + wait + 1.0 / rate_per_second)
    )


def fb_bandwidth(n_segments: int) -> int:
    """FB's fixed bandwidth in streams for ``n_segments`` segments."""
    if n_segments < 1:
        raise ConfigurationError(f"n must be >= 1, got {n_segments}")
    return int(math.ceil(math.log2(n_segments + 1)))


def staggered_catching_cost_rate(
    rate_per_second: float, duration: float, n_channels: int
) -> float:
    """Expected bandwidth of selective catching with ``n_channels`` loops.

    ``n_channels`` dedicated channels broadcast the video staggered every
    ``D / C`` seconds; each request additionally needs a catch-up patch of
    expected length ``D / (2C)``.
    """
    if n_channels < 1:
        raise ConfigurationError(f"need >= 1 channel, got {n_channels}")
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    return n_channels + rate_per_second * duration / (2.0 * n_channels)


def optimal_catching_channels(rate_per_second: float, duration: float) -> int:
    """Channel count minimising :func:`staggered_catching_cost_rate`.

    Balancing ``C`` against ``λD/(2C)`` gives ``C* = sqrt(λD/2)``; the
    discrete optimum is one of its two integer neighbours (at least 1).
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    if rate_per_second < 0:
        raise ConfigurationError(f"rate must be >= 0, got {rate_per_second}")
    ideal = math.sqrt(max(rate_per_second, 0.0) * duration / 2.0)
    floor_c = max(1, int(math.floor(ideal)))
    ceil_c = max(1, int(math.ceil(ideal)))
    candidates = {floor_c, ceil_c}
    return min(
        candidates,
        key=lambda c: staggered_catching_cost_rate(rate_per_second, duration, c),
    )
