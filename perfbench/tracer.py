"""Per-layer tracing of one in-process workload run.

Wrappers are installed at class or module level, from outside the
program, around the public entry points of each layer.  They must go
in before the first ``O3Core`` is built: the core prebinds its stage
ticks and ``locally_committable`` at construction.

Two kinds of instrument:

* **spans** (cell, trace build, construct, frontend/memory table
  build, simulate, verify generator/oracle/witness/composition), kept
  in memory with their parent and cell id and written out at the end;
* **accumulators** on the per-cycle hot path (seven stage ticks, the
  commit policy, commit legality checks, stepped cycles, fast-forward
  advances).  They are plain counters; each simulate span stores the
  delta they moved while it was open, so every cell carries its own
  per-stage split without one span per tick.

A hook whose target no longer exists is recorded in ``missing`` and
its metrics are reported as absent; installation never raises.
"""

from __future__ import annotations

import importlib
import sys
import time

perf = time.perf_counter

STAGES = ("fetch", "dispatch", "issue", "execute", "memory", "writeback",
          "commit")
#: commit policies of the Figure 15 sweep (IOC plus nine out-of-order)
FIG15_POLICIES = ("ioc", "orinoco", "vb", "vb_noecl", "br", "br_noecl",
                  "spec", "spec_norob", "ecl", "rob")

# accumulator slots: seconds in T, calls in C
_SLOTS = [f"tick.{s}" for s in STAGES] + [
    "commit.policy", "commit.legality", "pipeline.step",
    "ff.advance", "ff.hit"]
SLOT = {name: i for i, name in enumerate(_SLOTS)}


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, cell, name, start, end, attrs]
        self.stack = []
        self.missing = []
        self.installed = []
        self.T = [0.0] * len(_SLOTS)     # accumulated seconds per slot
        self.C = [0] * len(_SLOTS)       # calls per slot

    # -- spans ----------------------------------------------------------

    def open(self, name, cell=None, attrs=None):
        parent = self.stack[-1] if self.stack else None
        if cell is None and parent is not None:
            cell = parent[2]
        span = [len(self.spans), parent[0] if parent else None, cell, name,
                perf(), None, attrs if attrs is not None else {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[5] = perf()
        # tolerate exceptions that unwound inner spans without closing
        while self.stack and self.stack[-1] is not span:
            inner = self.stack.pop()
            if inner[5] is None:
                inner[5] = span[5]
        if self.stack:
            self.stack.pop()

    def span_wrapper(self, name, orig, cell_of=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            cell = cell_of(args) if cell_of is not None else None
            span = tracer.open(name, cell)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result
        wrapper.__wrapped__ = orig
        return wrapper

    # -- installation ---------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace ``module.attr`` everywhere a ``repro`` module holds
        the same object (``from x import f`` copies included)."""
        try:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(orig)
        for name, other in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    other is not None and \
                    getattr(other, attr, None) is orig:
                setattr(other, attr, wrapped)
        self.installed.append(f"{module}.{attr}")

    def patch_method(self, module, cls_name, attr, make):
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            orig = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        setattr(cls, attr, make(orig))
        self.installed.append(f"{module}.{cls_name}.{attr}")


def _timed(T, orig, slot):
    def wrapper(*args):
        t0 = perf()
        result = orig(*args)
        T[slot] += perf() - t0
        return result
    return wrapper


def _counted(C, orig, slot):
    def wrapper(*args, **kwargs):
        C[slot] += 1
        return orig(*args, **kwargs)
    return wrapper


def _policy_timed(T, orig):
    slot = SLOT["commit.policy"]
    depth = [0]

    def wrapper(*args):
        if depth[0]:
            return orig(*args)
        depth[0] += 1
        t0 = perf()
        try:
            return orig(*args)
        finally:
            T[slot] += perf() - t0
            depth[0] -= 1
    return wrapper


def _advance(T, C, orig):
    slot, hit = SLOT["ff.advance"], SLOT["ff.hit"]

    def wrapper(self, max_cycles):
        t0 = perf()
        result = orig(self, max_cycles)
        T[slot] += perf() - t0
        C[slot] += 1
        if result:
            C[hit] += 1
        return result
    return wrapper


def install():
    """Install every hook; returns the :class:`Tracer` holding spans."""
    # import every layer first so from-imported names can be found
    for module in ("repro", "repro.harness.experiments",
                   "repro.harness.parallel", "repro.verify.campaign",
                   "repro.pipeline.core", "repro.commit.policies"):
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    tr = Tracer()
    T, C = tr.T, tr.C
    stages = "repro.pipeline.stages"
    for stage in STAGES:
        cls = stage.capitalize() + "Stage"
        tr.patch_method(stages, cls, "tick",
                        lambda o, s=SLOT[f"tick.{stage}"]: _timed(T, o, s))
    tr.patch_method(stages, "CommitStage", "locally_committable",
                    lambda o: _counted(C, o, SLOT["commit.legality"]))
    tr.patch_method("repro.pipeline.core", "O3Core", "step",
                    lambda o: _counted(C, o, SLOT["pipeline.step"]))
    tr.patch_method("repro.pipeline.fastforward", "FastForward", "advance",
                    lambda o: _advance(T, C, o))
    try:
        from repro.commit.policies import CommitPolicy
        todo, seen = list(CommitPolicy.__subclasses__()), set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if "commit" in cls.__dict__:
                setattr(cls, "commit",
                        _policy_timed(T, cls.__dict__["commit"]))
        if not seen:
            tr.missing.append("repro.commit.policies.CommitPolicy.commit")
    except ImportError:
        tr.missing.append("repro.commit.policies.CommitPolicy")

    def on_core(name):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                span = tr.open(name)
                if name == "simulate":
                    span[6]["t0"], span[6]["c0"] = list(T), list(C)
                try:
                    result = orig(self, *args, **kwargs)
                finally:
                    if name == "simulate":
                        a = span[6]
                        a["acc_s"] = [x - y for x, y in zip(T, a.pop("t0"))]
                        a["acc_n"] = [x - y for x, y in zip(C, a.pop("c0"))]
                        a["policy"] = self.config.commit
                    tr.close(span)
                if name == "simulate":
                    span[6]["cycles"] = result.cycles
                    span[6]["committed"] = result.committed
                return result
            return wrapper
        return make

    tr.patch_method("repro.pipeline.core", "O3Core", "__init__",
                    on_core("construct"))
    tr.patch_method("repro.pipeline.core", "O3Core", "run",
                    on_core("simulate"))

    def span_fn(name, cell_of=None, after=None):
        return lambda orig: tr.span_wrapper(name, orig, cell_of, after)

    def span_init(name):
        def make(orig):
            def wrapper(self, *args, **kwargs):
                span = tr.open(name)
                try:
                    orig(self, *args, **kwargs)
                finally:
                    tr.close(span)
            return wrapper
        return make

    def trace_hit(span, args, result):
        span[6]["hit"] = bool(result[1])

    tr.patch_function("repro.workloads.suite", "fetch_trace",
                      span_fn("workloads.trace_build", after=trace_hit))
    tr.patch_function("repro.frontend", "make_predictor",
                      span_fn("frontend.build"))
    tr.patch_method("repro.frontend.fetch", "FetchUnit", "__init__",
                    span_init("frontend.build"))
    tr.patch_method("repro.memory.hierarchy", "MemoryHierarchy", "__init__",
                    span_init("memory.build"))
    tr.patch_method("repro.memory.tlb", "TLB", "__init__",
                    span_init("memory.build"))
    # cells: one figure (config, workload) simulation, one verify program
    tr.patch_function(
        "repro.harness.parallel", "_simulate_cell",
        span_fn("cell", cell_of=lambda a: f"{a[0][0].name}/"
                f"{a[0][0].scheduler}/{a[0][0].commit}/{a[0][1]}"))

    def combos(span, args, result):
        span[6]["combos"] = result.get("combos", 0)

    tr.patch_function(
        "repro.verify.campaign", "verify_program",
        span_fn("cell", cell_of=lambda a: f"verify/{a[0].name}",
                after=combos))
    for module, attr, name in (
            ("repro.verify.generator", "generate_programs",
             "verify.generate"),
            ("repro.verify.generator", "build_thread", "verify.generate"),
            ("repro.verify.oracle", "allowed_outcomes", "verify.oracle"),
            ("repro.verify.witness", "extract_witness", "verify.witness"),
            ("repro.verify.witness", "apparent_order", "verify.witness"),
            ("repro.verify.witness", "compose_outcomes", "verify.compose")):
        tr.patch_function(module, attr, span_fn(name))
    return tr


# -- reduction ---------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child[span[1]] += span[5] - span[4]
    return [span[5] - span[4] - child[span[0]] for span in spans]


def _top(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for span in spans:
        if span[3] != name:
            continue
        parent = span[1]
        while parent is not None and spans[parent][3] != name:
            parent = spans[parent][1]
        if parent is None:
            out.append(span)
    return out


def layer_metrics(tr):
    """Per-layer metrics over every span and accumulator recorded."""
    spans = tr.spans
    missing = set(tr.missing)

    def hooked(*names):
        return not any(n in missing for n in names)

    def total(name):
        return sum(s[5] - s[4] for s in _top(spans, name))

    m = {}
    sims = _top(spans, "simulate")
    acc_s = [0.0] * len(_SLOTS)
    acc_n = [0] * len(_SLOTS)
    per_policy = {}
    for s in sims:
        a = s[6]
        if "acc_s" not in a:
            continue
        acc_s = [x + y for x, y in zip(acc_s, a["acc_s"])]
        acc_n = [x + y for x, y in zip(acc_n, a["acc_n"])]
        ticks = sum(a["acc_s"][SLOT[f"tick.{st}"]] for st in STAGES)
        mine = per_policy.setdefault(a["policy"], [0.0, 0.0])
        mine[0] += a["acc_s"][SLOT["tick.commit"]]
        mine[1] += ticks
    core = "repro.pipeline.core.O3Core."
    stages = "repro.pipeline.stages."
    m["pipeline.construct_s"] = total("construct") \
        if hooked(core + "__init__") else None
    m["pipeline.constructs"] = len(_top(spans, "construct")) \
        if hooked(core + "__init__") else None
    m["frontend.build_s"] = total("frontend.build") \
        if hooked("repro.frontend.make_predictor") else None
    m["memory.build_s"] = total("memory.build") if hooked(
        "repro.memory.hierarchy.MemoryHierarchy.__init__") else None
    for st in STAGES:
        name = f"{stages}{st.capitalize()}Stage.tick"
        m[f"stages.{st}_s"] = acc_s[SLOT[f"tick.{st}"]] \
            if hooked(name) else None
    for policy in FIG15_POLICIES:
        commit, ticks = per_policy.get(policy, (0.0, 0.0))
        m[f"stages.commit_share.{policy}"] = commit / ticks if ticks else 0.0
    if not hooked(f"{stages}CommitStage.tick"):
        for policy in FIG15_POLICIES:
            m[f"stages.commit_share.{policy}"] = None
    sim_cycles = sum(s[6].get("cycles", 0) for s in sims)
    committed = sum(s[6].get("committed", 0) for s in sims)
    stepped = acc_n[SLOT["pipeline.step"]]
    checks = acc_n[SLOT["commit.legality"]]
    legal = hooked(f"{stages}CommitStage.locally_committable")
    m["commit.legality_checks"] = checks if legal else None
    m["commit.checks_per_stepped_cycle"] = (checks / stepped if stepped
                                            else 0.0) if legal else None
    m["commit.checks_per_commit"] = (checks / committed if committed
                                     else 0.0) if legal else None
    m["commit.policy_s"] = acc_s[SLOT["commit.policy"]]
    simulate_s = total("simulate")
    tick_s = sum(acc_s[SLOT[f"tick.{st}"]] for st in STAGES)
    m["pipeline.simulate_s"] = simulate_s
    m["pipeline.sim_cycles"] = sim_cycles
    m["pipeline.stepped_cycles"] = stepped \
        if hooked(core + "step") else None
    m["pipeline.us_per_stepped_cycle"] = (
        simulate_s / stepped * 1e6 if stepped else 0.0) \
        if hooked(core + "step") else None
    ff = hooked("repro.pipeline.fastforward.FastForward.advance")
    advance_s = acc_s[SLOT["ff.advance"]]
    calls = acc_n[SLOT["ff.advance"]]
    # ticks run inside FastForward.advance (its settle/measure steps)
    # are already in tick_s, so the driver residual is approximate
    # by at most those two replayed cycles per successful advance
    m["pipeline.driver_s"] = max(0.0, simulate_s - tick_s - advance_s)
    m["fastforward.skipped_frac"] = (
        1.0 - stepped / sim_cycles if sim_cycles else 0.0) \
        if hooked(core + "step") else None
    m["fastforward.advance_s"] = advance_s if ff else None
    m["fastforward.advance_calls"] = calls if ff else None
    m["fastforward.hit_frac"] = (acc_n[SLOT["ff.hit"]] / calls
                                 if calls else 0.0) if ff else None
    builds = _top(spans, "workloads.trace_build")
    traced = hooked("repro.workloads.suite.fetch_trace")
    m["workloads.trace_build_s"] = sum(
        s[5] - s[4] for s in builds if not s[6].get("hit")) \
        if traced else None
    m["workloads.trace_builds"] = sum(
        1 for s in builds if not s[6].get("hit")) if traced else None
    m["workloads.trace_hit_frac"] = (
        sum(1 for s in builds if s[6].get("hit")) / len(builds)
        if builds else 0.0) if traced else None
    for key, name in (("verify.generate_s", "verify.generate"),
                      ("verify.oracle_s", "verify.oracle"),
                      ("verify.witness_s", "verify.witness"),
                      ("verify.compose_s", "verify.compose")):
        m[key] = total(name)
    m["verify.combos"] = sum(s[6].get("combos", 0)
                             for s in _top(spans, "cell"))
    return m


def span_records(tr):
    """Spans as JSON rows: id, parent, cell, name, start, seconds,
    self seconds, attributes (start relative to the first span)."""
    spans = tr.spans
    if not spans:
        return []
    base = spans[0][4]
    selfs = self_times(spans)
    rows = []
    for span, own in zip(spans, selfs):
        attrs = dict(span[6])
        if "acc_s" in attrs:
            attrs["acc_s"] = dict(zip(_SLOTS, attrs["acc_s"]))
            attrs["acc_n"] = dict(zip(_SLOTS, attrs["acc_n"]))
        rows.append([span[0], span[1], span[2], span[3],
                     round(span[4] - base, 6), round(span[5] - span[4], 6),
                     round(own, 6), attrs])
    return rows
