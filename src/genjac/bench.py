"""Cost comparison between the modulus extension and the plain alternatives.

Each trial samples one element (a, b) with a on the extended curve and b a
unit, plus a fixed-width random scalar, then multiplies the same element in
four groups: the modulus extension, the zero-cocycle product, the curve
alone, and the units alone.  Multiplication counts come from the field-level
counter, so the numbers reflect exactly the arithmetic performed.

In strict mode every trial checks the structural facts the comparison rests
on: all four computations land on the same underlying components, and the
extension is never cheaper than the product, which in turn is never cheaper
than the two factors added together.  A trial whose extension chain walks
through the modulus support is skipped and counted; the other three rows
cannot collide.

Wall-clock medians are always measured but only emitted into the CSV on
request, so the default output is byte-identical for a fixed seed.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from .field import count_mults
from .groups import ExtElement, Group, SupportCollisionError, direct_product
from .jacobian import PRNG_NAME, GenJacParams

CSV_HEADER = (
    "label,group,trials,skipped,scalar_bits,"
    "muls_median,muls_min,muls_max,elem_chars_median,ms_median"
)

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
        ms = f"{self.ms_median:.3f}" if include_time else ""
        return (
            f"{self.label},{self.group},{self.trials},{self.skipped},"
            f"{self.scalar_bits},{_fmt(self.muls_median)},{self.muls_min},"
            f"{self.muls_max},{_fmt(self.elem_chars_median)},{ms}"
        )


@dataclass(frozen=True)
class BenchReport:
    seed: int
    prng: str
    scalar_bits: int
    trials: int
    rows: tuple[BenchRow, ...]

    def csv(self, include_time: bool = False) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv(include_time) for row in self.rows)
        return "\n".join(lines)


def _fmt(value: float) -> str:
    # medians of ints are ints or halves; avoid trailing .0 noise in the CSV
    if value == int(value):
        return str(int(value))
    return str(value)


def _measure(group: Group, n: int, x):
    start = time.perf_counter()
    with count_mults() as counter:
        result = group.scalar_mul(n, x)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return counter.muls, len(group.serialize(result)), elapsed_ms, result


def run_benchmark(
    params: GenJacParams,
    trials: int = 8,
    scalar_bits: int = 8,
    seed: int = 0,
    strict: bool = True,
) -> BenchReport:
    """Multiply random elements in all four groups and tabulate the cost."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a stable median")
    if scalar_bits < MIN_SCALAR_BITS:
        raise ValueError(f"scalar_bits must be at least {MIN_SCALAR_BITS}")
    rng = random.Random(seed)
    # the jacobian comes first: a support collision there skips the trial
    # before any other group runs
    groups: dict[str, Group] = {
        "jacobian": params.jacobian(ext=True),
        "product": direct_product(params.ext_curve, params.units()),
        "curve": params.ext_curve,
        "units": params.units(),
    }
    samples: dict[str, list[tuple]] = {label: [] for label in groups}

    skipped = 0
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > MAX_RESAMPLE_FACTOR * trials:
            raise RuntimeError("modulus support collisions exhausted the retry budget")
        a = params.ext_curve.random_point(rng)
        b = groups["units"].sample(rng)
        n = rng.randrange(1 << (scalar_bits - 1), 1 << scalar_bits)
        x = ExtElement(a, b)
        operands = {"jacobian": x, "product": x, "curve": a, "units": b}
        try:
            trial = {label: _measure(group, n, operands[label]) for label, group in groups.items()}
        except SupportCollisionError:
            skipped += 1
            continue
        if strict:
            _check_trial(trial)
        for label, (muls, chars, ms, _) in trial.items():
            samples[label].append((muls, chars, ms))
        done += 1

    rows = []
    for label, group in groups.items():
        muls, chars, times = zip(*samples[label])
        rows.append(BenchRow(
            label=label,
            group=group.describe().replace(",", ";"),
            trials=done,
            skipped=skipped if label == "jacobian" else 0,
            scalar_bits=scalar_bits,
            muls_median=statistics.median(muls),
            muls_min=min(muls),
            muls_max=max(muls),
            elem_chars_median=statistics.median(chars),
            ms_median=statistics.median(times),
        ))
    return BenchReport(
        seed=seed, prng=PRNG_NAME, scalar_bits=scalar_bits, trials=done, rows=tuple(rows)
    )


def _check_trial(trial: dict[str, tuple]) -> None:
    muls = {label: sample[0] for label, sample in trial.items()}
    res = {label: sample[3] for label, sample in trial.items()}
    if res["jacobian"].a_part != res["curve"] or res["product"].a_part != res["curve"]:
        raise BenchInvariantError("curve components disagree across groups")
    if res["product"].b_part != res["units"]:
        raise BenchInvariantError("unit component of the product disagrees")
    if muls["jacobian"] < muls["product"]:
        raise BenchInvariantError(
            f"extension cost {muls['jacobian']} fell below the product cost {muls['product']}"
        )
    if muls["product"] < muls["curve"] + muls["units"]:
        raise BenchInvariantError(
            f"product cost {muls['product']} fell below the factor costs "
            f"{muls['curve']}+{muls['units']}"
        )
