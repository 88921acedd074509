"""Pluggable workload targets: one registry for every trace source.

The suite used to be a closed dict of synthetic kernels; everything
downstream (cache keys, the worker rebuild protocol, figure sweeps)
hard-coded that shape.  A :class:`WorkloadTarget` is the open
replacement — anything that can deterministically produce a
:class:`~repro.isa.Trace` registers here and automatically joins the
sweeps, the bench, and the characterisation table:

* :class:`SyntheticTarget` — the seeded kernel generators
  (``repro.workloads.kernels``), wrapped with per-kernel scaling rules.
* :class:`TraceFileTarget` — an on-disk trace (``repro.isa.tracefile``
  format v1/v2), identified by content checksum.  Workers rebuild it
  from ``(path, sha256)`` instead of unpickling megabytes of
  ``DynInstr``.
* Scenario targets (``repro.workloads.scenarios``) — seed-deterministic
  compositions of other registered targets (SMT-style interleaving,
  pipeline-drain injection, phase switching).

Each target answers four questions the harness layers need:

``build_trace(scale)``
    The deterministic instruction stream.  Callers go through
    :func:`repro.workloads.fetch_trace`, which adds the bounded LRU
    and stamps ``trace.name``/``trace.scale``.
``fingerprint(scale)``
    A JSON-stable dict identifying the *content* of the trace — what
    the result cache keys on (two targets with equal fingerprints
    produce interchangeable simulation results).
``provenance()``
    A one-line human answer to "where did this workload come from",
    shown by ``repro kernels``.
``worker_spec()``
    A picklable recipe a spawn-fresh worker process can pass to
    :func:`ensure_target` to reconstruct the target before fetching
    its trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..isa import Program, Trace, trace_program
from ..isa.tracefile import file_sha256, load_trace, read_header

__all__ = ["WorkloadTarget", "SyntheticTarget", "TraceFileTarget",
           "add_trace_target", "ensure_target", "file_sha256", "get_target",
           "has_target", "iter_targets", "register_target", "scale_params",
           "sweep_names", "target_names", "unregister_target",
           "workload_fingerprint"]

#: emulation bound shared by every generated target
MAX_TRACE_INSTRS = 10_000_000


def scale_params(size_params: Dict[str, int], scale: float,
                 minimums: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Scale a kernel's size parameters, clamping to per-key minimums.

    The default floor of 8 keeps degenerate traces (empty loops) out of
    the sweeps; kernels whose parameters are intrinsically small (e.g.
    ``blender.matmul`` dim=12, where a floor of 8 would swallow every
    scale below 0.7) pass explicit ``minimums``.
    """
    minimums = minimums or {}
    return {key: max(minimums.get(key, 8), int(value * scale))
            for key, value in size_params.items()}


class WorkloadTarget:
    """One registered workload: a deterministic trace source."""

    #: target family, one of ``synthetic`` / ``trace-file`` / ``scenario``
    kind: str = "target"

    def __init__(self, name: str):
        self.name = name

    # -- the contract ------------------------------------------------------

    def build_trace(self, scale: float = 1.0) -> Trace:
        """Produce the dynamic trace (deterministic in ``scale``)."""
        raise NotImplementedError

    def fingerprint(self, scale: float = 1.0) -> Dict[str, object]:
        """JSON-stable content identity — the result-cache key payload."""
        raise NotImplementedError

    def provenance(self) -> str:
        """One line: where this workload's instructions come from."""
        return self.kind

    # -- harness hooks (sane defaults) --------------------------------------

    def worker_spec(self) -> Tuple:
        """Picklable recipe for :func:`ensure_target` in a fresh worker.

        The default assumes the target is re-registered by importing
        ``repro.workloads`` (true for built-in kernels and scenarios);
        targets registered ad hoc by user code override this
        (:meth:`TraceFileTarget.worker_spec` ships path + checksum).
        """
        return ("registry", self.name)

    def cost_estimate(self, scale: float = 1.0) -> float:
        """Relative wall-clock weight (generation-parameter units).

        Feeds dispatch chunk sizing only — a bad estimate changes how
        cells share a worker round-trip, never what they compute.
        """
        return 0.0

    def sweeps(self) -> bool:
        """Whether the target joins default (``names=None``) sweeps."""
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SyntheticTarget(WorkloadTarget):
    """A seeded kernel generator from ``repro.workloads.kernels``."""

    kind = "synthetic"

    def __init__(self, name: str, factory: Callable[..., Program],
                 size_params: Dict[str, int],
                 minimums: Optional[Dict[str, int]] = None):
        super().__init__(name)
        self.factory = factory
        self.size_params = dict(size_params)
        self.minimums = dict(minimums or {})

    def params(self, scale: float = 1.0) -> Dict[str, int]:
        """The generation parameters the kernel is actually built with."""
        return scale_params(self.size_params, scale, self.minimums)

    def build_program(self, scale: float = 1.0) -> Program:
        return self.factory(**self.params(scale))

    def build_trace(self, scale: float = 1.0) -> Trace:
        return trace_program(self.build_program(scale),
                             max_instrs=MAX_TRACE_INSTRS)

    def fingerprint(self, scale: float = 1.0) -> Dict[str, object]:
        return {"kind": self.kind, "params": self.params(scale)}

    def provenance(self) -> str:
        return f"generated: kernels.{self.factory.__name__}"

    def cost_estimate(self, scale: float = 1.0) -> float:
        return float(sum(self.params(scale).values()))


class TraceFileTarget(WorkloadTarget):
    """An on-disk trace file, identified by content checksum.

    ``scale`` is meaningless for a recorded stream: ``build_trace``
    ignores it and always returns the file's full contents (the
    harness still stamps the *requested* scale on the trace so job
    bookkeeping stays uniform).  The fingerprint is the file's sha256,
    so cached results survive renames and path moves but never survive
    content edits.
    """

    kind = "trace-file"

    def __init__(self, name: str, path: Union[str, Path],
                 sha256: Optional[str] = None):
        super().__init__(name)
        self.path = Path(path)
        self.header = read_header(self.path)
        self.sha256 = file_sha256(self.path)
        if sha256 is not None and sha256 != self.sha256:
            raise ValueError(
                f"{self.path}: checksum mismatch (expected {sha256[:12]}…, "
                f"file hashes to {self.sha256[:12]}…); the trace changed "
                f"since it was registered")

    def build_trace(self, scale: float = 1.0) -> Trace:
        if file_sha256(self.path) != self.sha256:
            raise ValueError(
                f"{self.path}: trace file changed on disk since target "
                f"{self.name!r} was registered (checksum mismatch)")
        return load_trace(self.path)

    def fingerprint(self, scale: float = 1.0) -> Dict[str, object]:
        return {"kind": self.kind, "sha256": self.sha256}

    def provenance(self) -> str:
        meta = self.header.get("meta") or {}
        source = meta.get("source")
        origin = f" (recorded from {source})" if source else ""
        return f"imported: {self.path}{origin}"

    def worker_spec(self) -> Tuple:
        return ("trace-file", self.name, str(self.path), self.sha256)

    def cost_estimate(self, scale: float = 1.0) -> float:
        # suite kernels emit ~12 trace instructions per parameter unit;
        # invert that so file targets weigh like equivalent kernels
        return self.header.get("count", 0) / 12.0


# -- the registry -----------------------------------------------------------

_TARGETS: "Dict[str, WorkloadTarget]" = {}


def register_target(target: WorkloadTarget,
                    replace: bool = False) -> WorkloadTarget:
    """Add a target to the registry (``replace=False`` forbids clobber)."""
    if not replace and target.name in _TARGETS:
        raise ValueError(f"workload target {target.name!r} is already "
                         f"registered; pass replace=True to override")
    _TARGETS[target.name] = target
    return target


def unregister_target(name: str) -> None:
    """Remove a target (test hook / re-import); missing names are fine."""
    _TARGETS.pop(name, None)


def has_target(name: str) -> bool:
    return name in _TARGETS


def get_target(name: str) -> WorkloadTarget:
    try:
        return _TARGETS[name]
    except KeyError as exc:
        raise ValueError(f"unknown workload target {name!r}; "
                         f"choose from {sorted(_TARGETS)}") from exc


def target_names(kind: Optional[str] = None) -> List[str]:
    """Registered names in registration order, optionally one kind."""
    return [name for name, target in _TARGETS.items()
            if kind is None or target.kind == kind]


def iter_targets() -> List[WorkloadTarget]:
    return list(_TARGETS.values())


def sweep_names() -> List[str]:
    """Targets that join default sweeps (``build_suite(names=None)``)."""
    return [name for name, target in _TARGETS.items() if target.sweeps()]


def workload_fingerprint(name: str, scale: float = 1.0) -> Dict[str, object]:
    """Cache-key payload for a registered target (ValueError if unknown)."""
    return get_target(name).fingerprint(scale)


def add_trace_target(path: Union[str, Path], name: Optional[str] = None,
                     replace: bool = False) -> TraceFileTarget:
    """Validate a trace file and register it as a workload target.

    The default name is the header's ``name`` field prefixed with
    ``trace:`` unless that collides, falling back to the file stem.
    """
    path = Path(path)
    target = TraceFileTarget("?", path)
    if name is None:
        name = f"trace:{target.header.get('name', path.stem)}"
    target.name = name
    return register_target(target, replace=replace)


def ensure_target(spec: Tuple) -> WorkloadTarget:
    """Reconstruct a target in this process from a ``worker_spec()``.

    Worker processes are spawned fresh: built-in targets reappear when
    ``repro.workloads`` imports, but ad-hoc registrations don't travel.
    ``("registry", name)`` asserts the import-time registration exists;
    ``("trace-file", name, path, sha256)`` re-imports the file and
    verifies its checksum, failing loudly if the file changed between
    the parent registering it and the worker reading it.
    """
    kind = spec[0]
    if kind == "registry":
        return get_target(spec[1])
    if kind == "trace-file":
        _, name, path, sha256 = spec
        existing = _TARGETS.get(name)
        if isinstance(existing, TraceFileTarget) and existing.sha256 == sha256:
            return existing
        if existing is not None and not isinstance(existing, TraceFileTarget):
            raise ValueError(
                f"cannot import trace file as {name!r}: the name is held "
                f"by a {existing.kind} target")
        target = TraceFileTarget(name, path, sha256=sha256)
        return register_target(target, replace=True)
    raise ValueError(f"unknown workload spec kind {kind!r}")
