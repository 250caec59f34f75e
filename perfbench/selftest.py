"""Shows that the benchmark's oracles can fail.

    python3 perfbench/selftest.py

Runs single repetitions of the workloads through the same oracle code the
benchmark uses, once as they are and once with one output damaged on its way
out of the package: a dropped binding, a count off by one, a schema-invalid
or non-deterministic document, a wrong exit code. Every clean run must give
failed_ratio 0 and every damaged one a failed_ratio above 0; the exit code is
1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    CliSession, FeatureAnalysis, LargeProduct, ManyProducts, run_child)


class Damaged:
    """The package, with one function's result passed through `damage`."""

    def __init__(self, lf, name: str, damage):
        self._lf, self._name, self._damage = lf, name, damage

    def __getattr__(self, attr):
        real = getattr(self._lf, attr)
        if attr != self._name:
            return real
        return lambda *args, **kwargs: self._damage(real(*args, **kwargs))


def drop_binding(doc: str) -> str:
    emitted = json.loads(doc)
    element = sorted(emitted["bindings"])[0]
    emitted["bindings"][element] = emitted["bindings"][element][:-1]
    return json.dumps(emitted, indent=2, sort_keys=True) + "\n"


def bad_version(doc: str) -> str:
    return doc.replace('"schemaVersion": 1', '"schemaVersion": 2')


class Drifting:
    """Appends one more blank line on every call: same JSON, other bytes."""

    def __init__(self):
        self.calls = 0

    def __call__(self, doc: str) -> str:
        self.calls += 1
        return doc + "\n" * self.calls


class FakeCli(CliSession):
    """Answers every command with a clean exit and a plausible line."""

    def lfc(self, command, args):
        return run_child([self.python, "-c", "print('0 errors, 0 warnings')"],
                         self.work, self.env)


def failed_ratio(workload, lf, reps: int = 1) -> float:
    for _ in range(reps):
        workload.rep(lf, NullTracer())
    workload.finish()
    return workload.failed / len(workload.ops)


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import localfeatures as lf

    def small_scale(root, seed, work):
        return LargeProduct(root, seed, work, copies=1)

    cases = [
        ("many-products, clean", ManyProducts, lf, 2, False),
        ("many-products, a binding dropped", ManyProducts,
         Damaged(lf, "emit", drop_binding), 1, True),
        ("many-products, schema-invalid document", ManyProducts,
         Damaged(lf, "emit", bad_version), 1, True),
        ("many-products, emission not byte-identical", ManyProducts,
         Damaged(lf, "emit", Drifting()), 2, True),
        ("scale product, clean", small_scale, lf, 2, False),
        ("scale product, a binding dropped", small_scale,
         Damaged(lf, "emit", drop_binding), 1, True),
        ("feature-analysis, clean", FeatureAnalysis, lf, 1, False),
        ("feature-analysis, one configuration missing", FeatureAnalysis,
         Damaged(lf, "enumerate_configurations", lambda found: found[:-1]), 1, True),
        ("cli-session, clean", CliSession, lf, 1, False),
        ("cli-session, wrong exit codes and output", FakeCli, lf, 1, True),
    ]
    wrong = 0
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for label, make, package, reps, damaged in cases:
        with tempfile.TemporaryDirectory(dir=out) as work:
            workload = make(root, 7, Path(work))
            workload.setup(lf)
            ratio = failed_ratio(workload, package, reps)
        ok = ratio > 0 if damaged else ratio == 0
        wrong += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: failed_ratio {ratio:.3g}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
