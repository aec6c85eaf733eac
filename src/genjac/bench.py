"""Cost comparison between the modulus extension and the plain alternatives.

Each trial samples one element (a, b) with a on the extended curve and b a
unit, plus a fixed-width random scalar, then multiplies it in the modulus
extension, on the curve alone and in the units alone.  The direct product
works componentwise, so its row is the curve sample plus the units sample,
one character more for the "|" of its element.  Multiplication counts come
from the field-level counter, so they are exactly the arithmetic performed.

In strict mode every trial checks the facts the comparison rests on: the
extension chain lands on the curve chain's point, and it costs strictly
more than the curve chain plus twice the units chain, because each
extension add is a curve add, two unit multiplies and a cocycle
evaluation.  A trial whose extension chain walks through the modulus
support is skipped and counted; the other rows cannot collide.

Wall-clock medians are always measured but only emitted into the CSV on
request, so the default output is byte-identical for a fixed seed.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, fields

from .field import count_mults
from .groups import ExtElement, Group, SupportCollisionError
from .jacobian import GenJacParams

# Give up if collisions force more resamples than this per requested trial.
MAX_RESAMPLE_FACTOR = 50
MIN_TRIALS = 5  # fewer trials give no stable median
MIN_SCALAR_BITS = 2


class BenchInvariantError(Exception):
    """A per-trial structural check failed."""


@dataclass(frozen=True)
class BenchRow:
    label: str
    group: str
    trials: int
    skipped: int
    scalar_bits: int
    muls_median: float
    muls_min: int
    muls_max: int
    elem_chars_median: float
    ms_median: float

    def csv(self, include_time: bool) -> str:
        # ms_median, the last column, is written only on request
        cells = [_fmt(getattr(self, column.name)) for column in fields(self)[:-1]]
        return ",".join([*cells, f"{self.ms_median:.3f}" if include_time else ""])


CSV_HEADER = ",".join(column.name for column in fields(BenchRow))


@dataclass(frozen=True)
class BenchReport:
    trials: int
    rows: tuple[BenchRow, ...]

    def csv(self, include_time: bool = False) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv(include_time) for row in self.rows)
        return "\n".join(lines)


def _fmt(value) -> str:
    # medians of ints are ints or halves; avoid trailing .0 noise in the CSV
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _measure(group: Group, n: int, x):
    start = time.perf_counter()
    with count_mults() as counter:
        result = Group.scalar_mul(group, n, x)  # every trial runs its ladder, never a remembered one
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return counter.muls, len(group.serialize(result)), elapsed_ms, result


def run_benchmark(
    params: GenJacParams,
    trials: int = 8,
    scalar_bits: int = 8,
    seed: int = 0,
    strict: bool = True,
) -> BenchReport:
    """Multiply random elements in the extension and its factors and tabulate the cost."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a stable median")
    if scalar_bits < MIN_SCALAR_BITS:
        raise ValueError(f"scalar_bits must be at least {MIN_SCALAR_BITS}")
    rng = random.Random(seed)
    jacobian, curve, units = params.jacobian(ext=True), params.ext_curve, params.units()
    records = []  # per kept trial: the jacobian, curve and units measurements
    skipped = 0
    while len(records) < trials:
        a, b = curve.random_point(rng), units.sample(rng)
        n = rng.randrange(1 << (scalar_bits - 1), 1 << scalar_bits)
        # the jacobian comes first: a support collision there skips the trial
        # before any other group runs
        try:
            jac = _measure(jacobian, n, ExtElement(a, b))
        except SupportCollisionError:
            skipped += 1
            if skipped >= MAX_RESAMPLE_FACTOR * trials:
                raise RuntimeError("modulus support collisions exhausted the retry budget") from None
            continue
        trial = (jac, _measure(curve, n, a), _measure(units, n, b))
        if strict:
            _check_trial(*trial)
        records.append(trial)

    jac_samples, curve_samples, units_samples = ([m[:3] for m in column] for column in zip(*records))
    # the direct product works componentwise and serializes as "a|b"
    product_samples = [
        (c_muls + u_muls, c_chars + 1 + u_chars, c_ms + u_ms)
        for (c_muls, c_chars, c_ms), (u_muls, u_chars, u_ms) in zip(curve_samples, units_samples)
    ]
    rows = []
    for label, group, samples in (
        ("jacobian", jacobian.describe(), jac_samples),
        ("product", f"{curve.describe()} x {units.describe()}", product_samples),
        ("curve", curve.describe(), curve_samples),
        ("units", units.describe(), units_samples),
    ):
        muls, chars, times = zip(*samples)
        rows.append(BenchRow(
            label=label,
            group=group.replace(",", ";"),
            trials=len(records),
            skipped=skipped if label == "jacobian" else 0,
            scalar_bits=scalar_bits,
            muls_median=statistics.median(muls),
            muls_min=min(muls),
            muls_max=max(muls),
            elem_chars_median=statistics.median(chars),
            ms_median=statistics.median(times),
        ))
    return BenchReport(trials=len(records), rows=tuple(rows))


def _check_trial(jacobian: tuple, curve: tuple, units: tuple) -> None:
    (jac, _, _, x), (cur, _, _, a), (uni, *_) = jacobian, curve, units
    if x.a_part != a:
        raise BenchInvariantError("curve components disagree across groups")
    if jac <= cur + 2 * uni:
        raise BenchInvariantError(
            f"extension cost {jac} fell below the factor costs {cur} + 2*{uni} and a cocycle"
        )
