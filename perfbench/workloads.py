"""The benchmark's four workloads.

Each workload generates its inputs from the seed, parses its definitions in
setup, and then runs repetitions. A repetition times its operations and,
outside the timed region, judges every output against an oracle
that does not come from the package: expected results the generators chose,
hand-counted sizes, the README's exit codes, and the schema file checked with
jsonschema directly. An operation also fails when its output differs from
the same operation's output in an earlier repetition.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

cpu = time.process_time
SCHEMA = Path("src/localfeatures/schema/derivation-config.schema.json")
DIAGNOSTIC_CODES = gen.ERROR_KINDS


def schema_valid(root: Path, text: str) -> bool:
    """Check a document against the packaged schema file with jsonschema
    itself, not through the package's verify_schema."""
    import jsonschema  # only after setup has been timed

    schema = json.loads((root / SCHEMA).read_text(encoding="utf-8"))
    return not any(jsonschema.Draft7Validator(schema).iter_errors(json.loads(text)))


def holds(check, *args) -> bool:
    """check(*args), where output too malformed to inspect counts as False."""
    try:
        return bool(check(*args))
    except (ValueError, LookupError, TypeError, AttributeError, OSError):
        return False


def scale_ok(doc: str, copies: int) -> bool:
    """The reference per-feature counts of the scale product, times copies;
    no other feature may appear."""
    emitted = json.loads(doc)
    counts = Counter(f for features in emitted["bindings"].values() for f in features)
    return (len(emitted["bindings"]) == gen.SCALE_ELEMENTS * copies
            and emitted["features"] == gen.SCALE_INCLUDED
            and set(counts) <= set(gen.SCALE_COUNTS)
            and all(counts[f] == n * copies for f, n in gen.SCALE_COUNTS.items()))


@dataclass
class Child:
    code: int
    out: str
    err: str
    cpu_s: float
    peak_mb: float


def run_child(argv: list[str], cwd: Path, env: dict | None = None) -> Child:
    """Run a process to completion; its CPU time (user plus system, its
    start included) and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Workload:
    """Inputs, setup, one repetition, and the oracle bookkeeping."""

    name = ""
    min_reps = 3
    ops_per_rep = 1
    in_process = True       # the operations run in the benchmark's process

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.work = work
        self.rng = random.Random(seed)
        self.data = root / "src" / "localfeatures" / "data"
        self.ops: list[list] = []           # [output key, ok]
        self.first: dict[str, tuple[str, str | None]] = {}

    def definitions(self) -> list[Path]:
        return [self.data / "gis.spl"]

    def setup(self, lf) -> None:
        self.spl = {p.name: p.read_text(encoding="utf-8") for p in self.definitions()}
        self.parsed = {name: lf.parse_spl_definition(text, filename=name)
                       for name, text in self.spl.items()}

    def rep(self, lf, t) -> tuple[list[float], float]:
        """Run one repetition; return the operation times and the
        repetition's work time, in CPU seconds."""
        raise NotImplementedError

    def memory(self, lf) -> dict[str, float]:
        return {}

    @property
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def judge(self, key: str, ok: bool, output: str, document: bool = False) -> None:
        """Record one operation's verdict; `output` must be byte-identical
        across repetitions, and a derivation document must also pass the
        schema (checked once per distinct document, in finish)."""
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        first = self.first.setdefault(key, (digest, output if document else None))
        self.ops.append([key, ok and first[0] == digest])

    def finish(self) -> None:
        invalid = {key for key, (_, doc) in self.first.items()
                   if doc is not None and not schema_valid(self.root, doc)}
        for op in self.ops:
            if op[0] in invalid:
                op[1] = False

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.ops if not ok)


# ---------------------------------------------------------------------------
# In-process derivation, as `lfc emit` does it, and the traced replays
# ---------------------------------------------------------------------------

def derive(lf, t, spec_text: str, spec_name: str, spl_text: str, spl_name: str):
    with t.span("parser.parse"):
        spec = lf.parse(spec_text, filename=spec_name)
    with t.span("spldef.parse"):
        definition = lf.parse_spl_definition(spl_text, filename=spl_name)
    with t.span("resolver.resolve"):
        resolved = lf.resolve(spec, definition)
    doc = None
    if not resolved.errors:
        with t.span("emitter.emit"):
            doc = lf.emit(resolved)
    return resolved, doc


def tokenize(t, spec_text: str) -> None:
    """The tokenizing that parse() does inside, run on its own just before
    the derivation, from the same heap state, so parser.self_s is parse
    minus this."""
    lexer = importlib.import_module("localfeatures.lexer")
    with t.span("lexer.tokenize"):
        tokens = lexer.tokenize(spec_text, lexer.SPEC_KEYWORDS)
    t.count("lexer.tokens", len(tokens))


def replay(lf, t, resolved, doc: str | None) -> None:
    """Closure and multimodel work that resolve() does inside, repeated
    through public functions so it can be timed on its own, plus the
    counters."""
    spec = resolved.spec
    seeds = {}
    for e in spec.entities:
        if e.features is not None:
            seeds[f"data.{e.name}"] = frozenset(e.features.names)
    for m in spec.maps:
        if m.features is not None:
            seeds[f"visualization.{m.name}"] = frozenset(m.features.names)
        for ref in m.layers:
            if ref.features is not None:
                seeds[f"visualization.{m.name}.{ref.name}"] = frozenset(ref.features.names)
    mm = resolved.multimodel
    functional = resolved.definition.functional
    bindings = mm.bindings
    with t.span("features.close"):
        for b in bindings:
            lf.close_selection_traced(functional.locals[b.local_model], seeds[b.element])
    with t.span("multimodel.effective"):
        for element, local_model in mm.covered_elements():
            mm.effective_configuration(element, local_model)
    with t.span("multimodel.included"):
        mm.included_features()

    t.count("parser.decls", len(spec.entities) + len(spec.layers) + len(spec.maps) + 1)
    t.count("spldef.features", len(functional.global_model.feature_names)
            + sum(len(m.feature_names) for m in functional.locals.values()))
    t.count("resolver.elements", len(resolved.effective))
    t.count("resolver.bindings", len(bindings))
    t.count("resolver.distinct_selections",
            len({(b.local_model, b.selection) for b in bindings}))
    for d in resolved.diagnostics:
        t.count(f"resolver.diagnostics.{d.code}", 1)
    if doc is not None:
        t.count("emitter.bytes", len(doc.encode("utf-8")))


def allocation_peak(call):
    """(result, bytes): call() and the tracemalloc peak it reached above
    what was already allocated. tracemalloc must be running."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - base


def derivation_peaks(lf, jobs) -> dict[str, float]:
    """tracemalloc peak per stage over (spec text, name, spl text, name)
    jobs, in a pass of its own so it does not distort span timings."""
    lexer = importlib.import_module("localfeatures.lexer")
    peaks: Counter = Counter()

    def stage(layer: str, call):
        result, peak = allocation_peak(call)
        peaks[layer] = max(peaks[layer], peak)
        return result

    tracemalloc.start()
    try:
        for spec_text, spec_name, spl_text, spl_name in jobs:
            stage("lexer", lambda: len(lexer.tokenize(spec_text, lexer.SPEC_KEYWORDS)))
            spec = stage("parser", lambda: lf.parse(spec_text, filename=spec_name))
            definition = stage("spldef", lambda: lf.parse_spl_definition(spl_text, filename=spl_name))
            resolved = stage("resolver", lambda: lf.resolve(spec, definition))
            if not resolved.errors:
                stage("emitter", lambda: lf.emit(resolved))
            del spec, definition, resolved
    finally:
        tracemalloc.stop()
    return {f"{layer}.peak_mb": peak / 2**20 for layer, peak in peaks.items()}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class LargeProduct(Workload):
    """One x50 scale product against the packaged gis.spl. A repetition is
    one derivation. Schema verification of the 6 MB document takes about
    6 s, so it runs only in the traced pass (emitter.verify_s)."""

    name = "large-product"
    min_reps = 3

    def __init__(self, root: Path, seed: int, work: Path, copies: int = 50):
        super().__init__(root, seed, work)
        self.copies = copies
        self.spec_text = gen.scale_spec(copies, self.rng)

    def rep(self, lf, t):
        with t.product("Scale"):
            if t.on:
                tokenize(t, self.spec_text)
            start = cpu()
            with t.span("derive", op=True):
                resolved, doc = derive(lf, t, self.spec_text, "scale.gis",
                                       self.spl["gis.spl"], "gis.spl")
            op = cpu() - start
            verified = True
            if t.on:
                replay(lf, t, resolved, doc)
                with t.span("emitter.verify"):
                    verified = lf.verify_schema(doc)
        clean = not resolved.diagnostics
        del resolved
        self.judge("Scale", clean and verified and holds(scale_ok, doc, self.copies),
                   doc or "", document=doc is not None)
        return [op], op

    def memory(self, lf):
        return derivation_peaks(lf, [(self.spec_text, "scale.gis",
                                      self.spl["gis.spl"], "gis.spl")])


class ManyProducts(Workload):
    """40 products of fixed sizes against three generated definitions; each
    derivation re-parses its definition, as `lfc` does, and each emitted
    document goes through verify_schema."""

    name = "many-products"
    min_reps = 5
    ops_per_rep = 40

    def __init__(self, root: Path, seed: int, work: Path):
        super().__init__(root, seed, work)
        self.defs = [gen.definition(d, self.rng) for d in range(3)]
        for d in self.defs:
            (work / d.name).write_text(d.text, encoding="utf-8")
        self.products = gen.products(self.ops_per_rep, self.defs, self.rng)

    def definitions(self):
        return [self.work / d.name for d in self.defs]

    def rep(self, lf, t):
        ops, verify_s, outputs = [], 0.0, []
        for p in self.products:
            spl_name = self.defs[p.definition].name
            with t.product(p.name):
                if t.on:
                    tokenize(t, p.text)
                start = cpu()
                with t.span("derive", op=True):
                    resolved, doc = derive(lf, t, p.text, f"{p.name}.gis",
                                           self.spl[spl_name], spl_name)
                ops.append(cpu() - start)
                verified = doc is None
                if doc is not None:
                    start = cpu()
                    with t.span("emitter.verify"):
                        verified = lf.verify_schema(doc)
                    verify_s += cpu() - start
                if t.on:
                    replay(lf, t, resolved, doc)
            outputs.append((p, tuple(d.code for d in resolved.diagnostics),
                            resolved.effective, doc, verified))
            del resolved
        for p, codes, effective, doc, verified in outputs:
            ok = codes == p.codes and effective == p.effective and verified
            if doc is None:
                ok = ok and bool(p.codes)
            else:
                ok = ok and not p.codes and holds(lambda: json.loads(doc)["bindings"] == {
                    element: sorted(config) for element, config in p.effective.items()})
            self.judge(p.name, ok, doc or " ".join(codes), document=doc is not None)
        return ops, sum(ops) + verify_s

    def memory(self, lf):
        return derivation_peaks(lf, [
            (p.text, f"{p.name}.gis", self.spl[self.defs[p.definition].name],
             self.defs[p.definition].name) for p in self.products])


# Hand-counted: EntityFeature 5 x 5 minus 2 with FormAccess but no Form,
# MapFeature 2 x 2, LayerFeature 2 x 2 x 2, GIS_SPL 23 x 4 x 8 x 3 (Menu) x 2 x 2.
PACKAGED_SIZES = {"GIS_SPL": 8832, "EntityFeature": 23, "MapFeature": 4, "LayerFeature": 8}


class FeatureAnalysis(Workload):
    """enumerate_configurations on GIS_SPL, its three local models, and
    eight random models of 14 features each, of fixed shapes that the seed
    renames, so that the median and tail operations fall on the same work
    whatever the seed."""

    name = "feature-analysis"
    ops_per_rep = 4 + len(gen.ANALYSIS_SIZES)

    def __init__(self, root: Path, seed: int, work: Path):
        super().__init__(root, seed, work)
        self.random = gen.analysis_models(self.rng)
        for file_name, text, _ in self.random:
            (work / file_name).write_text(text, encoding="utf-8")

    def definitions(self):
        return [self.data / "gis.spl"] + [self.work / name for name, _, _ in self.random]

    def setup(self, lf):
        super().setup(lf)
        functional = self.parsed["gis.spl"].functional
        self.models = [(functional.global_model, PACKAGED_SIZES["GIS_SPL"])]
        self.models += [(functional.locals[n], PACKAGED_SIZES[n])
                        for n in ("EntityFeature", "MapFeature", "LayerFeature")]
        self.models += [(self.parsed[name].functional.global_model, expected)
                        for name, _, expected in self.random]

    def rep(self, lf, t):
        """Each result is judged and dropped right after its timed call, so
        that no earlier result (GIS_SPL's 8,832 configurations) is still on
        the heap for the collector to walk during a later call."""
        ops = []
        for model, expected in self.models:
            with t.product(model.name):
                start = cpu()
                with t.span("features.enumerate", op=True):
                    found = lf.enumerate_configurations(model)
                ops.append(cpu() - start)
            t.count("features.configs", len(found))
            if isinstance(expected, int):
                ok = len(found) == expected == len(set(found))
            else:
                ok = found == expected
            self.judge(model.name, ok, "\n".join(", ".join(sorted(c)) for c in found))
            del found
        return ops, sum(ops)

    def memory(self, lf):
        peak = 0
        tracemalloc.start()
        try:
            for model, _ in self.models:
                peak = max(peak, allocation_peak(
                    lambda: lf.enumerate_configurations(model))[1])
        finally:
            tracemalloc.stop()
        return {"features.peak_mb": peak / 2**20}


WEBEIEL_BINDINGS = {
    "data.Municipality": ["EntityFeature", "Filterable", "Form", "FormAccess", "List"],
    "data.Hotel": ["Creatable", "Editable", "EntityFeature", "Filterable", "Form",
                   "FormAccess", "List"],
    "visualization.municipalitiesMap": ["MapFeature"],
    "visualization.hotelsMap": ["LayerManager", "MapFeature", "UserGeolocation"],
    "visualization.municipalitiesMap.baseLayer": ["LayerFeature"],
    "visualization.municipalitiesMap.municipalitiesLayer": ["LayerFeature"],
    "visualization.hotelsMap.baseLayer": ["LayerFeature"],
    "visualization.hotelsMap.municipalitiesLayer": ["LayerFeature"],
    "visualization.hotelsMap.hotelsLayer": ["Clustering", "LayerFeature", "StyleSelector"],
}
WEBEIEL_INCLUDED = sorted({"GIS_SPL", "Menu", "TopMenu", "UserManagement"}.union(
    *WEBEIEL_BINDINGS.values()))
ENTITY_FEATURE = gen.Tree(
    gen.Node("EntityFeature", children=[
        gen.Node("Form", children=[gen.Node("Creatable"), gen.Node("Editable")]),
        gen.Node("List", children=[gen.Node("FormAccess"), gen.Node("Filterable")])]),
    requires=[("FormAccess", "Form")])
_EXPLAIN_ROW = re.compile(r"(\S+)\s+(.*?\S)\s+(\S+)$")


def _explained(out: str, clause: list[str], root: str) -> bool:
    lines = out.splitlines()
    rows = [_EXPLAIN_ROW.match(line).groups()[:2] for line in lines[1:]]
    expected = sorted([(name, "local") for name in clause]
                      + [(root, "local (bound local root)")])
    return bool(lines) and lines[0].startswith("FEATURE") and rows == expected


class CliSession(Workload):
    """Sequential `python -m localfeatures.cli` processes: check, emit,
    explain and features on the packaged product, an x1 scale product and a
    spec with two errors, plus `enumerate --model EntityFeature`."""

    name = "cli-session"
    ops_per_rep = 13
    in_process = False

    def __init__(self, root: Path, seed: int, work: Path):
        super().__init__(root, seed, work)
        self.python = sys.executable
        webeiel = (self.data / "webeiel.gis").read_text(encoding="utf-8")
        scale = gen.scale_spec(1, self.rng)
        broken = gen.broken_spec(webeiel, self.rng)
        (work / "scale.gis").write_text(scale, encoding="utf-8")
        (work / "broken.gis").write_text(broken, encoding="utf-8")
        clause = re.search(r"ENTITY E1c0 \(\n[^)]*\) WITH FEATURES \(([^)]*)\)", scale)
        spl = str(self.data / "gis.spl")
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.child_peak_mb = 0.0
        no_errors = "0 errors, 0 warnings\n"
        hotel = WEBEIEL_BINDINGS["data.Hotel"]
        e1 = clause.group(1).split(", ")
        self.calls = []
        for tag, spec, element, rows, bindings, included in (
                ("webeiel", str(self.data / "webeiel.gis"), "data.Hotel",
                 [n for n in hotel if n != "EntityFeature"], WEBEIEL_BINDINGS,
                 WEBEIEL_INCLUDED),
                ("scale", "scale.gis", "data.E1c0", e1, None, gen.SCALE_INCLUDED)):
            out = f"{tag}.derivation.json"

            def emitted(c, out=out, bindings=bindings, included=included):
                doc = (work / out).read_text(encoding="utf-8")
                ok = c.code == 0 and c.out == out + "\n"
                if bindings is None:
                    return ok and holds(scale_ok, doc, 1), doc
                parsed = json.loads(doc)
                return ok and parsed["bindings"] == bindings \
                    and parsed["features"] == included, doc

            self.calls += [
                ("check", [spec, "--spl", spl],
                 lambda c: c.code == 0 and c.out == no_errors and not c.err),
                ("emit", [spec, "--spl", spl, "--out", out], emitted),
                ("explain", [spec, element, "--spl", spl],
                 lambda c, rows=rows: c.code == 0
                 and _explained(c.out, rows, "EntityFeature")),
                ("features", [spec, "--spl", spl],
                 lambda c, included=included: c.code == 0
                 and c.out.splitlines() == included),
            ]

        def codes(c):
            return sorted(re.findall(r"error\[([a-z-]+)\]", c.err))

        self.calls += [
            ("check", ["broken.gis", "--spl", spl],
             lambda c: c.code == 1 and c.out == "2 errors, 0 warnings\n"
             and codes(c) == ["unknown-feature", "unknown-layer"]),
            ("emit", ["broken.gis", "--spl", spl, "--out", "broken.json"],
             lambda c: c.code == 1 and not c.out and not (work / "broken.json").exists()),
            ("explain", ["broken.gis", "data.Nowhere", "--spl", spl],
             lambda c: c.code == 2 and not c.out
             and c.err.splitlines()[-1].startswith("error: no covered element")),
            ("features", ["broken.gis", "--spl", spl],
             lambda c: c.code == 1 and not c.out),
            ("enumerate", ["--spl", spl, "--model", "EntityFeature"],
             lambda c: c.code == 0 and c.out.splitlines() == ["23"] + [
                 ", ".join(sorted(x)) for x in gen.configurations(ENTITY_FEATURE)]),
        ]

    def lfc(self, command: str, args: list[str]) -> Child:
        return run_child([self.python, "-m", "localfeatures.cli", command, *args],
                         self.work, self.env)

    def rep(self, lf, t):
        ops, outputs = [], []
        if t.on:
            with t.span("cli.interpreter"):
                run_child([self.python, "-c", "pass"], self.work, self.env)
            with t.span("cli.import"):
                run_child([self.python, "-c", "import localfeatures"], self.work, self.env)
        for i, (command, args, check) in enumerate(self.calls):
            with t.product(f"call{i}"), t.span(f"cli.{command}", op=True):
                child = self.lfc(command, args)
            ops.append(child.cpu_s)
            self.child_peak_mb = max(self.child_peak_mb, child.peak_mb)
            outputs.append((i, child, check))
        for i, child, check in outputs:
            try:
                verdict = check(child)
            except (ValueError, LookupError, AttributeError, OSError):
                verdict = False
            ok, doc = verdict if isinstance(verdict, tuple) else (verdict, None)
            self.judge(f"call{i}", ok, doc or child.out, document=doc is not None)
        return ops, sum(ops)

    @property
    def peak_rss_mb(self) -> float:
        return self.child_peak_mb


WORKLOADS = {w.name: w for w in (LargeProduct, ManyProducts, FeatureAnalysis, CliSession)}
