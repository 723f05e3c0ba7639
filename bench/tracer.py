"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function defined in the traced
soficert modules and rebinds the wrapper at every module attribute that
holds the original, so a call through an import binding (``cli.approximate``
as well as ``builder.approximate``) is recorded too.  ``uninstall`` puts
the originals back.  Spans are keyed ``<module>.<function>`` by the
module that defines the function.  Each span adds its wall time to the
key's total (once, however deeply it recurses) and its time minus the
time of wrapped callees to the key's self time.  Spans and counts stay
in memory; ``snapshot`` hands them over once per pass.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "soficert"
TRACED_MODULES = ("cli", "builder", "stallings", "actions", "verifier", "permutations")

# hot helpers whose calls are counted without timing a span
COUNT_ONLY = frozenset({"permutations.compose", "permutations.inverse",
                        "permutations.identity_perm"})


def _separator_index(args, kwargs, result, counts):
    counts["stallings.separator_index"] += result.size


def _image_group_order(args, kwargs, result, counts):
    counts["stallings.image_group_order"] += len(result)


def _multiplicative_pairs(args, kwargs, result, counts):
    F = kwargs["F"] if "F" in kwargs else args[1]
    counts["verifier.multiplicative_pairs"] += len(F) ** 2


def _triples(args, kwargs, result, counts):
    counts["verifier.triples_checked"] += result.triples_checked


def _violations(args, kwargs, result, counts):
    counts["verifier.violations"] += sum(len(msgs) for _, msgs in result.clause_failures)


# counts read off a span's arguments or result; a hook that no longer
# fits the program's signature is skipped, not fatal
RESULT_HOOKS = {
    "stallings.hall_completion": _separator_index,
    "stallings.image_group": _image_group_order,
    "verifier.check_multiplicative": _multiplicative_pairs,
    "verifier.check_orbit_witness": _triples,
    "verifier.verify_certificate": _violations,
}
ERROR_COUNTS = {"stallings.image_group": "stallings.image_group_refusals"}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.present: set[str] = set()
        self._stack: list[list[float]] = []  # [seconds spent in wrapped callees]
        self._active: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short in TRACED_MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                key = f"{short}.{name}"
                self.present.add(key)
                wrapper = self._counter(key, fn) if key in COUNT_ONLY else self._span(key, fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._bindings.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._bindings):
            setattr(holder, attr, fn)
        self._bindings.clear()

    # -- wrappers -------------------------------------------------------

    def _counter(self, key, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key, fn):
        hook = RESULT_HOOKS.get(key)
        error_count = ERROR_COUNTS.get(key)

        def traced(*args, **kwargs):
            self.calls[key] += 1
            frame = [0.0]
            self._stack.append(frame)
            self._active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error_count:
                    self.counts[error_count] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._active[key] -= 1
                self._stack.pop()
                if not self._active[key]:
                    self.total[key] += elapsed
                self.self_time[key] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if hook is not None:
                try:
                    hook(args, kwargs, result, self.counts)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals since the last snapshot, then reset."""
        out = {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        for table in (self.total, self.self_time, self.calls, self.counts):
            table.clear()
        return out
