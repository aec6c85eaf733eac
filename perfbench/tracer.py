"""Run-time span wrappers around genjac's layer functions.

The tracer never edits the library: `Tracer.installed()` replaces each
function named in PATCHES with a wrapper for the duration of a `with`
block and puts the original back afterwards.  A wrapper keeps per-label
totals in memory: calls, inclusive time, self time (inclusive time minus
the time of wrapped calls made inside it) and support collisions raised
through it.

A patch must replace the name the caller actually looks up, so each row
names the module and attribute where the lookup happens, which is not
always where the function is defined.  The label always names the
defining module; `installed()` checks that, so a row cannot silently
patch a different function than the one its label claims.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from genjac.curve import SupportCollisionError

# (module, attribute path inside it, label)
PATCHES = (
    ("genjac.field", "FieldElement.inverse", "field.inverse"),
    ("genjac.field", "FieldElement.sqrt", "field.sqrt"),
    ("genjac.curve", "Curve.add", "curve.add"),
    ("genjac.curve", "Curve.random_point", "curve.random_point"),
    ("genjac.curve", "Curve.enumerate_points", "curve.enumerate_points"),
    # the modulus cocycle calls the copy of these names bound into jacobian;
    # patching genjac.curve would never see those calls
    ("genjac.jacobian", "eval_line_fraction", "curve.eval_line_fraction"),
    ("genjac.jacobian", "element_order", "curve.element_order"),
    ("genjac.groups", "ExtensionGroup.add", "groups.ext_add"),
    ("genjac.groups", "Group.scalar_mul", "groups.scalar_mul"),
    # a different function from curve.element_order, despite the name
    ("genjac.groups", "element_order", "groups.element_order"),
    ("genjac.jacobian", "ModulusCocycle.__call__", "jacobian.cocycle"),
    ("genjac.jacobian", "make_toy_params", "jacobian.make_toy_params"),
    ("genjac.jacobian", "load_params", "jacobian.load_params"),
    ("genjac.jacobian", "pairing_order", "jacobian.pairing_order"),
    ("genjac.jacobian", "tate_from_group_law", "jacobian.tate_from_group_law"),
    ("genjac.jacobian", "tate_by_miller", "jacobian.tate_by_miller"),
    ("genjac.dlp", "pohlig_hellman", "dlp.pohlig_hellman"),
    ("genjac.dlp", "bsgs", "dlp.bsgs"),
    ("genjac.numbertheory", "factorize", "numbertheory.factorize"),
)

LABELS = tuple(label for _, _, label in PATCHES)


@dataclasses.dataclass
class Span:
    """Totals of every wrapped call recorded under one label."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    collisions: int = 0


def _owner_and_attr(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Per-label span totals, filled while the wrappers are installed."""

    def __init__(self) -> None:
        self.spans = {label: Span() for label in LABELS}
        # one running child-time total per wrapped call in progress
        self._child_s: list[float] = []

    def _wrap(self, label: str, fn):
        span = self.spans[label]
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except SupportCollisionError:
                span.collisions += 1
                raise
            finally:
                elapsed = perf_counter() - start
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child_s.pop()
                if child_s:
                    child_s[-1] += elapsed

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every PATCHES row for the duration of the block."""
        saved = []
        ph_defaults = None
        try:
            for module_name, path, label in PATCHES:
                owner, attr = _owner_and_attr(module_name, path)
                # read the owner's own entry: an inherited attribute would be
                # patched on the wrong class
                original = vars(owner)[attr]
                defined_in = original.__module__.removeprefix("genjac.")
                if defined_in != label.split(".", 1)[0]:
                    raise RuntimeError(
                        f"{module_name}.{path} is defined in {original.__module__}, "
                        f"not in the layer its label {label!r} names"
                    )
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(label, original))
            # pohlig_hellman bound its default leaf solver to the unwrapped
            # bsgs when it was defined; point the default at the wrapper too
            dlp = importlib.import_module("genjac.dlp")
            ph = dlp.pohlig_hellman.__wrapped__
            ph_defaults = ph.__defaults__
            ph.__defaults__ = (dlp.bsgs,)
            yield self
        finally:
            if ph_defaults is not None:
                ph.__defaults__ = ph_defaults
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def reset(self) -> None:
        # the wrappers hold these Span objects, so clear them in place
        for span in self.spans.values():
            span.calls, span.total_s, span.self_s, span.collisions = 0, 0.0, 0.0, 0

    def snapshot(self) -> dict[str, Span]:
        return {label: dataclasses.replace(span) for label, span in self.spans.items()}
