"""Exact decayed sums from the generator's own inputs, and answer checks.

The oracle never asks the program: it keeps every item the generator sent
and answers ``sum(v * g(T - t))`` over a key's items with ``t <= T``, with
its own ``g``.  A served answer ``{"time": T, "value", "lower", "upper"}``
passes when

* its bracket ``[lower, upper]`` contains the exact sum, and
* its value is within the engine's error: ``epsilon`` relative for
  approximate engines (WBMH), ``EXACT_TOL`` for the exact EXPD register.

Both comparisons allow ``EXACT_TOL`` relative slack for floating-point
rounding, since the engine and the oracle sum in different orders.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from typing import Any

import numpy as np

#: Relative tolerance for answers that should be exact (EXPD) and for
#: the bracket test; far above summation rounding, far below any real fault.
EXACT_TOL = 1e-9


class ExactSums:
    """Per-key exact decayed sums over a feed that arrives out of order.

    Items are held per key; a query at time ``T`` folds the key's items
    with ``t <= T``.  Query times never move backwards (the store clock
    is monotone), so folded items are dropped from the pending list and
    the fold is a running register for EXPD and a per-tick histogram for
    other decays.
    """

    def __init__(self, decay: str, rate: float) -> None:
        if decay not in ("expd", "polyd"):
            raise ValueError(f"unknown decay {decay!r}")
        self.decay = decay
        self.rate = float(rate)
        self._pending: dict[str, list[tuple[int, float]]] = defaultdict(list)
        # expd: key -> [register time, register value]
        self._register: dict[str, list[float]] = {}
        # polyd: key -> ([ticks, ascending], [summed value per tick])
        self._ticks: dict[str, tuple[list[int], list[float]]] = {}
        self._last_query = -1

    def weight(self, age: int) -> float:
        if self.decay == "expd":
            return math.exp(-self.rate * age)
        return float(age + 1) ** -self.rate

    def add(self, key: str, when: int, value: float) -> None:
        self._pending[key].append((when, value))

    def exact(self, key: str, when: int) -> float:
        if when < self._last_query:
            raise ValueError(
                f"query time moved back: {self._last_query} -> {when}"
            )
        self._last_query = when
        pending = self._pending.get(key, [])
        due = sorted(p for p in pending if p[0] <= when)
        if due:
            self._pending[key] = [p for p in pending if p[0] > when]
        if self.decay == "expd":
            reg = self._register.setdefault(key, [0, 0.0])
            for t, v in due:
                reg[1] = reg[1] * math.exp(-self.rate * (t - reg[0])) + v
                reg[0] = t
            return reg[1] * math.exp(-self.rate * (when - reg[0]))
        ticks, values = self._ticks.setdefault(key, ([], []))
        for t, v in due:
            at = bisect.bisect_left(ticks, t)
            if at < len(ticks) and ticks[at] == t:
                values[at] += v
            else:
                ticks.insert(at, t)
                values.insert(at, v)
        ages = when - np.asarray(ticks, dtype=np.float64)
        return float(np.dot(np.asarray(values), (ages + 1.0) ** -self.rate))


def check_answer(
    answer: dict[str, Any], exact: float, epsilon: float | None
) -> str | None:
    """``None`` when ``answer`` is right for ``exact``, else the reason.

    ``epsilon=None`` asks for an exact answer (within ``EXACT_TOL``).
    """
    try:
        value = float(answer["value"])
        lower = float(answer["lower"])
        upper = float(answer["upper"])
    except (KeyError, TypeError, ValueError):
        return f"malformed answer {answer!r}"
    slack = EXACT_TOL * max(1.0, abs(exact))
    if not lower - slack <= exact <= upper + slack:
        return f"bracket [{lower}, {upper}] misses exact {exact}"
    allowed = slack if epsilon is None else epsilon * abs(exact) + slack
    if abs(value - exact) > allowed:
        return f"value {value} off exact {exact} by more than {allowed}"
    return None


def self_test() -> list[str]:
    """Show that the checks pass a right answer and fail perturbed ones.

    Returns the list of problems; empty means the checks discriminate.
    """
    problems: list[str] = []
    for decay, rate, eps in (("expd", 0.05, None), ("polyd", 1.0, 0.1)):
        sums = ExactSums(decay, rate)
        for t, v in ((0, 1.5), (3, 2.0), (2, 0.25), (9, 1.0)):
            sums.add("k", t, v)
        exact = sums.exact("k", 5)
        expected = sum(
            v * sums.weight(5 - t) for t, v in ((0, 1.5), (3, 2.0), (2, 0.25))
        )
        if abs(exact - expected) > EXACT_TOL * expected:
            problems.append(f"{decay}: oracle {exact} != direct {expected}")
        good = {"time": 5, "value": exact, "lower": exact, "upper": exact}
        if check_answer(good, exact, eps) is not None:
            problems.append(f"{decay}: a right answer was rejected")
        spread = 2 * (eps or 0.0) + 1e-6
        for name, bad in (
            ("value", dict(good, value=exact * (1 + spread))),
            ("bracket", dict(good, lower=exact * 1.001, upper=exact * 1.002)),
            ("missing", {"time": 5, "value": exact}),
        ):
            if check_answer(bad, exact, eps) is None:
                problems.append(f"{decay}: perturbed {name} was accepted")
    return problems
