"""Outside-in tracer: spans around schwarz_lab's public functions.

The package's modules import each other with ``from .x import y``, so every
importing module holds its own reference to a function.  Wrapping only the
defining module would miss those callers; ``Tracer.install`` rebinds the
wrapper in every ``schwarz_lab`` module whose namespace holds the same
function object, and ``uninstall`` puts the originals back.

Spans carry name, start, end, parent, job id, whether an exception left the
span, and one count read from the call's arguments or return value.  They are
kept in memory; ``chrome_trace`` renders them for writing at the end.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

from schwarz_lab import RichardsonConfig

# The map evaluation batches of this size or less count as small.
SMALL_BATCH = 64


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points(args, kwargs, out):
    return out.shape[0] if getattr(out, "ndim", 1) == 2 else 1


def _halton_key(args, kwargs, out):
    return (_arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "count"), out.shape[0])


def _evaluations(args, kwargs, out):
    return out.evaluations


def _stage_share(args, kwargs, out):
    cfg = _arg(args, kwargs, 3, "cfg") or RichardsonConfig()
    return out.stages_used / (cfg.stages + 1)


def _job_check(args, kwargs, out):
    return args[0].check


# (span name, defining module, function names, count read from the call)
TARGETS = (
    ("geometry.norm_p", "geometry", ("norm_p",), None),
    ("maps.evaluate", "maps", ("evaluate",), _points),
    ("rng.stream", "rng", ("stream",), None),
    ("diff.complex_jacobian", "diff", ("complex_jacobian",), None),
    ("diff.complex_jacobian_fd", "diff", ("complex_jacobian_fd",), None),
    ("diff.real_jacobian", "diff", ("real_jacobian",), None),
    ("diff.radial_boundary_derivative", "diff", ("radial_boundary_derivative",), _stage_share),
    ("diff.pluriharmonic_residual", "diff", ("pluriharmonic_residual",), None),
    ("verify.sample_ball", "verify", ("sample_ball",), _points),
    ("verify.operator_norm_lower", "verify", ("operator_norm_lower",), None),
    ("verify.check", "verify", ("verify_schwarz_pick", "verify_zhu", "verify_kalaj",
                                "verify_lp_boundary_schwarz", "verify_liu_wang",
                                "verify_product_slice", "verify_pluriharmonic_boundary"), None),
    ("rigidity.halton_ball_grid", "rigidity", ("halton_ball_grid",), _halton_key),
    ("rigidity.check", "rigidity", ("check_rigidity", "check_proof_chain", "equality_case_1d",
                                    "counterexample_polydisk_eigen"), None),
    ("caratheodory.opt", "caratheodory", ("metric_lower_bound_opt",
                                          "distance_lower_bound_opt"), _evaluations),
    ("caratheodory.competitor_membership_max", "caratheodory",
     ("competitor_membership_max",), None),
    ("suite.parse_suite", "suite", ("parse_suite",), None),
    ("suite.run_suite", "suite", ("run_suite",), None),
    ("suite.emit_report", "suite", ("emit_report",), None),
    # the per-job dispatch; its span sets the job id every nested span carries
    ("suite.job", "suite", ("_run_job",), _job_check),
)

LAYERS = ("geometry", "maps", "rng", "diff", "verify", "rigidity", "caratheodory", "suite")

# Span tuple fields.
NAME, START, END, PARENT, JOB, RAISED, COUNT = range(7)


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._job = None
        self._saved = []

    def _wrap(self, name, fn, count, is_job):
        spans = self.spans
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_job = self._job
            if is_job:
                self._job = args[0].id
            job = self._job
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                self._job = outer_job
                spans[idx] = (name, start, end, parent, job, raised,
                              None if raised or count is None else count(args, kwargs, out))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every target in every schwarz_lab module that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "schwarz_lab" or key.startswith("schwarz_lab."))]
        wrappers = {}
        self.missing = []
        for name, module, functions, count in TARGETS:
            home = sys.modules.get(f"schwarz_lab.{module}")
            for fname in functions:
                fn = getattr(home, fname, None) if home is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{fname}")
                    continue
                wrappers[id(fn)] = self._wrap(name, fn, count, name == "suite.job")
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def take(self) -> list:
        """Return the spans collected so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def chrome_trace(*groups: list) -> dict:
    """Span lists (each from one ``take``) as Chrome trace-event JSON for Perfetto."""
    t0 = min((s[START] for spans in groups for s in spans), default=0.0)
    events = []
    offset = 0
    for spans in groups:
        for i, s in enumerate(spans):
            parent = offset + s[PARENT] if s[PARENT] >= 0 else -1
            events.append({"name": s[NAME], "ph": "X", "pid": 0, "tid": 0,
                           "ts": (s[START] - t0) * 1e6, "dur": (s[END] - s[START]) * 1e6,
                           "args": {"id": offset + i, "parent": parent, "job": s[JOB],
                                    "raised": s[RAISED], "count": s[COUNT]}})
        offset += len(spans)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_seconds(spans: list, name: str) -> float:
    """Total self time of the spans called ``name``: duration minus children."""
    total = 0.0
    for s in spans:
        if s[NAME] == name:
            total += s[END] - s[START]
        elif s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name:
            total -= s[END] - s[START]
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(passes: list, checks: list) -> dict:
    """Per-layer metrics, each a mean per traced pass, from each pass's spans.

    ``checks`` lists every check name, so ``suite.job_ms.<check>`` is
    printed for all of them (0 when the workload has no job of that check).
    """
    n = len(passes)
    calls, self_s, total_s = {}, {}, {}
    points = {"maps.evaluate": 0, "verify.sample_ball": 0, "rigidity.halton_ball_grid": 0}
    small_calls = 0
    evaluations = 0
    stage_shares = []
    nested_evals = {"diff.complex_jacobian": 0, "diff.complex_jacobian_fd": 0,
                    "diff.real_jacobian": 0}
    repeats = 0
    raised = dict.fromkeys(LAYERS, 0)
    job_ms = {}
    for spans in passes:
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        seen_grids = set()
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if s[RAISED] and (parent is None or _layer(parent[NAME]) != _layer(name)):
                raised[_layer(name)] += 1
            if s[RAISED]:
                continue
            if name == "maps.evaluate":
                points[name] += s[COUNT]
                small_calls += s[COUNT] <= SMALL_BATCH
                if parent is not None and parent[NAME] in nested_evals:
                    nested_evals[parent[NAME]] += 1
            elif name == "verify.sample_ball":
                points[name] += s[COUNT]
            elif name == "rigidity.halton_ball_grid":
                key = s[COUNT][:2]
                repeats += key in seen_grids
                seen_grids.add(key)
                points[name] += s[COUNT][2]
            elif name == "caratheodory.opt":
                evaluations += s[COUNT]
            elif name == "diff.radial_boundary_derivative":
                stage_shares.append(s[COUNT])
            elif name == "suite.job":
                job_ms.setdefault(s[COUNT], []).append(dur * 1e3)

    def per_pass(table, name):
        return table.get(name, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("caratheodory.opt", "caratheodory.competitor_membership_max",
                 "verify.operator_norm_lower", "geometry.norm_p", "verify.sample_ball",
                 "maps.evaluate", "diff.complex_jacobian", "diff.complex_jacobian_fd",
                 "diff.real_jacobian", "diff.radial_boundary_derivative",
                 "diff.pluriharmonic_residual", "rigidity.halton_ball_grid", "rng.stream"):
        m[f"{name}.calls"] = per_pass(calls, name)
        m[f"{name}.s"] = per_pass(self_s, name)
    m["caratheodory.opt.evaluations"] = evaluations / n
    m["caratheodory.opt.evals_per_s"] = ratio(evaluations, total_s.get("caratheodory.opt", 0.0))
    for name in points:
        m[f"{name}.points"] = points[name] / n
    m["maps.evaluate.points_per_s"] = ratio(points["maps.evaluate"],
                                            total_s.get("maps.evaluate", 0.0))
    m["maps.evaluate.small_calls"] = small_calls / n
    for name, count in nested_evals.items():
        m[f"{name}.evals_per_call"] = ratio(count, calls.get(name, 0))
    m["diff.radial_boundary_derivative.stage_share"] = (
        statistics.fmean(stage_shares) if stage_shares else 0.0)
    m["rigidity.halton_ball_grid.repeat_share"] = ratio(repeats,
                                                        calls.get("rigidity.halton_ball_grid", 0))
    for name in ("rigidity.check", "verify.check", "suite.emit_report"):
        m[f"{name}.s"] = per_pass(self_s, name)
    # dispatch and run-time revalidation live in run_suite and the per-job hook
    m["suite.run_suite.s"] = per_pass(self_s, "suite.run_suite") + per_pass(self_s, "suite.job")
    for check in checks:
        values = job_ms.get(check)
        m[f"suite.job_ms.{check}"] = statistics.median(values) if values else 0.0
    for layer, count in raised.items():
        m[f"{layer}.raised"] = count / n
    return m
