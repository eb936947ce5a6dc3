"""Declarative experiment campaigns and their run/resume lifecycle.

A :class:`Campaign` names *what* to compute — specs x inputs x engines x
config variants — and :func:`run_campaign` turns it into artifacts on disk:

1. **expand**: the grid is flattened into a deterministic, seeded list of
   :class:`Cell` s.  Expansion is a pure function of the campaign, so the same
   campaign always yields the same cells (ids, seeds, order) — the property
   resume and caching both rest on.
2. **skip**: cells whose ids already appear in the campaign's JSONL store are
   done (a previous run, possibly interrupted, produced them).
3. **cache**: remaining seeded cells are looked up in the content-addressed
   :class:`~repro.lab.cache.ResultCache`; hits are replayed into the store
   without simulating.
4. **execute**: misses go to an executor (:mod:`repro.lab.executor`) — a
   worker pool or the serial fallback — and every result (including error
   rows) is appended to the store as it arrives.
5. **aggregate**: all rows are summarized (:mod:`repro.lab.aggregate`) and the
   summary is written next to the store.

Specs travel to worker processes *by name*: a module-level factory registry
maps names to zero-argument constructors, pre-populated with the package
catalog.  Custom factories registered at runtime reach workers on platforms
that fork (Linux); under a spawn start method only the built-in catalog is
visible to workers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.config import CANONICAL_JSON, RunConfig
from repro.core.specs import FunctionSpec
from repro.lab.aggregate import CampaignSummary, summarize
from repro.lab.cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cell_cache_key,
    spec_fingerprint,
)
from repro.lab.store import CellResult, ResultStore, write_json
from repro.obs.provenance import run_manifest
from repro.obs.trace import (
    JsonlTraceSink,
    Tracer,
    get_tracer,
    install_tracer,
    merge_trace_files,
)
from repro.sim.registry import registered_engines, registry_generation

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
SUMMARY_NAME = "summary.json"
TRACE_NAME = "trace.jsonl"
PROVENANCE_NAME = "provenance.json"


# ---------------------------------------------------------------------------
# Spec factories: names -> constructors, so cells are picklable and portable
# ---------------------------------------------------------------------------

_SPEC_FACTORIES: Dict[str, Callable[[], FunctionSpec]] = {}
_SPEC_INSTANCES: Dict[str, FunctionSpec] = {}
_SPEC_FINGERPRINTS: Dict[str, str] = {}
_SPEC_GENERATION = 0  # bumped by every register_spec_factory


def register_spec_factory(
    name: str, factory: Callable[[], FunctionSpec], replace: bool = False
) -> None:
    """Register a zero-argument spec constructor under ``name``.

    Campaign cells reference specs by these names (a callable cannot ride a
    pickle to a worker process).  ``replace=True`` overwrites — note the cache
    is content-addressed via :func:`~repro.lab.cache.spec_fingerprint`, so
    re-binding a name to a different function can never resurrect the old
    function's cached results.
    """
    global _SPEC_GENERATION
    if not isinstance(name, str) or not name:
        raise ValueError(f"spec name must be a nonempty string, got {name!r}")
    if name in _SPEC_FACTORIES and not replace:
        raise ValueError(
            f"spec factory {name!r} is already registered; pass replace=True to overwrite"
        )
    _SPEC_FACTORIES[name] = factory
    _SPEC_INSTANCES.pop(name, None)
    _SPEC_FINGERPRINTS.pop(name, None)
    _SPEC_GENERATION += 1


def spec_factory_names() -> Tuple[str, ...]:
    """All registered spec names, sorted."""
    return tuple(sorted(_SPEC_FACTORIES))


def resolve_spec(name: str) -> FunctionSpec:
    """Instantiate (once per process) the spec registered under ``name``."""
    try:
        spec = _SPEC_INSTANCES[name]
    except KeyError:
        try:
            factory = _SPEC_FACTORIES[name]
        except KeyError:
            known = ", ".join(repr(n) for n in spec_factory_names()) or "(none)"
            raise ValueError(
                f"unknown spec {name!r}; registered specs: {known}"
            ) from None
        spec = _SPEC_INSTANCES[name] = factory()
    return spec


def registered_fingerprint(name: str) -> str:
    """:func:`~repro.lab.cache.spec_fingerprint` of the spec registered as ``name``.

    Computed once per registration: :func:`register_spec_factory` drops the
    entry, so a re-registered name is fingerprinted afresh.
    """
    fingerprint = _SPEC_FINGERPRINTS.get(name)
    if fingerprint is None:
        fingerprint = _SPEC_FINGERPRINTS[name] = spec_fingerprint(resolve_spec(name))
    return fingerprint


def registration_generations() -> Tuple[int, int]:
    """This process's spec and engine registration counters.

    A worker forked while they read one value holds stale registries once
    they read another (see :class:`repro.serve.pool.WorkerPool`).
    """
    return (_SPEC_GENERATION, registry_generation())


def _register_builtin_specs() -> None:
    from repro.functions import catalog, extended, paper_examples

    builtins: Dict[str, Callable[[], FunctionSpec]] = {
        "double": catalog.double_spec,
        "identity": catalog.identity_spec,
        "add": catalog.add_spec,
        "minimum": catalog.minimum_spec,
        "maximum": catalog.maximum_spec,
        "min_one": catalog.min_one_spec,
        "floor_3x_over_2": catalog.floor_3x_over_2_spec,
        "quilt_2d_fig3b": catalog.quilt_2d_fig3b_spec,
        "threshold_capped": catalog.threshold_capped_spec,
        "minimum_3d": extended.minimum_3d_spec,
        "weighted_floor": extended.weighted_floor_spec,
        "capped_sum": extended.capped_sum_spec,
        "tropical_polynomial": extended.tropical_polynomial_spec,
        "min3_with_offset": extended.min3_with_offset_spec,
        "fig7": paper_examples.fig7_spec,
        "eq2_counterexample": paper_examples.eq2_counterexample_spec,
        "fig4a_style": paper_examples.fig4a_style_spec,
        "interior_min_plus_one": paper_examples.interior_min_plus_one_spec,
    }
    for name, factory in builtins.items():
        register_spec_factory(name, factory, replace=True)


_register_builtin_specs()


# ---------------------------------------------------------------------------
# Engine selection from registry capability metadata
# ---------------------------------------------------------------------------


def resolve_engine(
    selector: str, x: Sequence[int], config: Optional[RunConfig] = None
) -> str:
    """Resolve an engine selector for one input, honouring ``"auto"``.

    ``"auto"`` picks, among the eligible calibrated engines, the one whose
    registry cost rule ``step_cost + trials * trial_step_cost`` is lowest at
    ``config.trials`` (ties go to the earlier registration).  The eligible
    engines are one class:

    * exact (the default): fair-capable, non-approximate engines.  In the
      default registry that is ``python`` below about 175 trials and
      ``vectorized`` from there on, at any population.
    * approximate, only when the config opts in with
      ``allow_approximate=True`` and the population reaches the engine's
      ``min_recommended_population`` floor (10^4 for the built-ins): ``tau``
      below about 20 trials, ``tau-vec`` from there on.  Under the floor,
      leaping degrades to exact stepping, so the exact class is used.

    Engines of one class fire the same reaction events per trial, so the
    population cancels out of the comparison and only ``trials`` decides
    (not exactly for ``python``, which fires forced stretches, where one
    reaction is applicable, at a lower cost per event; the constants do not
    model that).
    Explicit selectors are returned unchanged; the opt-in only affects
    ``"auto"``.

    The pick reads ``config.trials`` and, for opted-in configs only, the
    population, so it is memoized on those two and the engine registry's
    generation (:func:`~repro.sim.registry.registry_generation`): any
    registry change makes the next call pick afresh.
    """
    if selector != "auto":
        return selector
    config = config or RunConfig()
    population = sum(int(v) for v in x) if config.allow_approximate else None
    return _pick_engine(config.trials, population, registry_generation())


@functools.lru_cache(maxsize=4096)
def _pick_engine(trials: int, population: Optional[int], generation: int) -> str:
    """:func:`resolve_engine`'s cost rule; ``population`` is ``None`` for exact-only configs."""
    calibrated = [
        info for info in registered_engines() if info.trial_step_cost is not None
    ]
    candidates = []
    if population is not None:
        candidates = [
            info
            for info in calibrated
            if info.approximate and (info.min_recommended_population or 0) <= population
        ]
    if not candidates:
        candidates = [
            info for info in calibrated if info.supports_fair and not info.approximate
        ]
    if not candidates:
        return "python"
    return min(candidates, key=lambda info: info.cost(trials)).name


# ---------------------------------------------------------------------------
# Grids, cells, campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian input grid: one tuple of values per input dimension."""

    axes: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "axes", tuple(tuple(int(v) for v in axis) for axis in self.axes)
        )
        if not self.axes or any(not axis for axis in self.axes):
            raise ValueError("SweepGrid needs at least one nonempty axis per dimension")

    @staticmethod
    def from_ranges(*ranges: Tuple[int, int]) -> "SweepGrid":
        """Half-open ``(lo, hi)`` ranges, one per dimension."""
        return SweepGrid(tuple(tuple(range(lo, hi)) for lo, hi in ranges))

    @staticmethod
    def parse(text: str, dimension: Optional[int] = None) -> "SweepGrid":
        """Parse ``"0:5"`` / ``"0:5,0:3"`` / ``"1,2,5"`` axis syntax.

        Comma separates axes; each axis is a half-open ``lo:hi`` range or a
        single value.  A single axis is replicated to ``dimension`` when one
        is given (so ``"0:5"`` means the square/cube grid for any spec).
        ``";"`` separates values *within* an axis: ``"0:3;7"`` is
        ``(0, 1, 2, 7)``.
        """
        axes: List[Tuple[int, ...]] = []
        for axis_text in text.split(","):
            values: List[int] = []
            for part in axis_text.split(";"):
                part = part.strip()
                if ":" in part:
                    lo, hi = part.split(":", 1)
                    values.extend(range(int(lo), int(hi)))
                elif part:
                    values.append(int(part))
            axes.append(tuple(values))
        if dimension is not None and len(axes) == 1 and dimension > 1:
            axes = axes * dimension
        return SweepGrid(tuple(axes))

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def points(self) -> Tuple[Tuple[int, ...], ...]:
        """All grid points, in row-major (itertools.product) order."""
        return tuple(itertools.product(*self.axes))

    def __len__(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis)
        return size


@dataclass(frozen=True)
class Cell:
    """One fully-resolved unit of campaign work (picklable, content-addressed).

    ``config`` carries the cell's concrete engine and derived seed;
    ``cell_id`` is a 16-hex-digit content hash of the descriptor, and
    :meth:`cache_key` extends it with the code-version salt for the
    result cache.
    """

    index: int
    spec: str
    strategy: str
    input: Tuple[int, ...]
    engine: str
    config: RunConfig
    spec_fingerprint: str
    cell_id: str

    @property
    def cacheable(self) -> bool:
        """Only seeded cells are deterministic, hence content-addressable."""
        return self.config.seed is not None

    def cache_key(self) -> str:
        return cell_cache_key(
            self.spec_fingerprint,
            self.strategy,
            self.input,
            self.engine,
            self.config.cache_key(),
        )

    def __repr__(self) -> str:
        return (
            f"Cell(#{self.index} {self.spec}{list(self.input)} "
            f"engine={self.engine} id={self.cell_id})"
        )


def _derive_cell_seed(master_seed: int, descriptor_blob: str) -> int:
    digest = hashlib.sha256(
        f"{master_seed}|{descriptor_blob}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def check_input(spec_name: str, x: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``x`` has the registered spec's dimension."""
    dimension = resolve_spec(spec_name).dimension
    if len(x) != dimension:
        raise ValueError(
            f"input {tuple(x)} has {len(x)} coordinates but spec "
            f"{spec_name!r} takes {dimension}"
        )


def _descriptor_frame(
    fingerprint: str, strategy: str, engine: str, variant: RunConfig
) -> Tuple[str, str]:
    """The descriptor of every cell of one (spec, strategy, engine, variant),
    split around its input.

    The descriptor is the canonical JSON of ``spec_fp``, ``strategy``,
    ``input``, ``engine`` and ``config`` (the variant minus its seed and
    engine).  Sorted keys put ``input`` after the scalar-only ``config`` and
    ``engine``, so the first ``"input":[]`` of the blank descriptor is the
    input's slot.
    """
    variant_fields = variant.to_dict()
    variant_fields.pop("seed")
    variant_fields.pop("engine")
    blank = CANONICAL_JSON.encode(
        {
            "spec_fp": fingerprint,
            "strategy": strategy,
            "input": [],
            "engine": engine,
            "config": variant_fields,
        }
    )
    head, _, tail = blank.partition('"input":[]')
    return head + '"input":[', "]" + tail


def make_cell(
    index: int,
    spec_name: str,
    strategy: str,
    fingerprint: str,
    x: Tuple[int, ...],
    selector: str,
    variant: RunConfig,
    master_seed: Optional[int],
    frames: Optional[Dict[Tuple[str, str, str, int], Tuple[str, str]]] = None,
) -> Cell:
    """The one cell constructor: descriptor, seed, and id of one grid point.

    :meth:`Campaign.expand` builds every cell here, and the server's
    one-cell requests do too, so a cell's id, derived seed, and cache key
    depend only on its descriptor, never on which caller built it.  ``x``
    is a tuple of ints.  ``frames`` is a caller-owned memo of descriptor
    frames keyed by ``id(variant)``, so it may only outlive the call while
    the caller keeps every variant alive (:meth:`Campaign.expand` does).
    """
    # Resolved per variant: "auto" may pick an approximate engine only for
    # configs that opted in.
    engine = resolve_engine(selector, x, variant)
    if frames is None:
        frame = _descriptor_frame(fingerprint, strategy, engine, variant)
    else:
        slot = (fingerprint, strategy, engine, id(variant))
        frame = frames.get(slot)
        if frame is None:
            frame = frames[slot] = _descriptor_frame(fingerprint, strategy, engine, variant)
    head, tail = frame
    descriptor = head + ",".join(map(str, x)) + tail
    if master_seed is not None:
        seed: Optional[int] = _derive_cell_seed(master_seed, descriptor)
    else:
        seed = variant.seed
    cell_id = hashlib.sha256(f"{descriptor}|seed={seed}".encode("utf-8")).hexdigest()[:16]
    return Cell(
        index=index,
        spec=spec_name,
        strategy=strategy,
        input=tuple(x),
        engine=engine,
        config=variant.replace(engine=engine, seed=seed),
        spec_fingerprint=fingerprint,
        cell_id=cell_id,
    )


SpecLike = Union[str, Tuple[str, str], FunctionSpec]


def _normalize_spec_entry(entry: SpecLike, default_strategy: str) -> Tuple[str, str]:
    if isinstance(entry, FunctionSpec):
        if entry.name in _SPEC_FACTORIES:
            # never silently rebind a registered name (e.g. a catalog spec)
            # to a different object — that would leak into every later
            # resolve_spec() in the process
            if resolve_spec(entry.name) is not entry:
                raise ValueError(
                    f"spec name {entry.name!r} is already registered to a "
                    f"different spec; rename yours, or call "
                    f"register_spec_factory({entry.name!r}, ..., replace=True) "
                    f"explicitly first"
                )
        else:
            register_spec_factory(entry.name, lambda spec=entry: spec)
        return (entry.name, default_strategy)
    if isinstance(entry, str):
        return (entry, default_strategy)
    name, strategy = entry
    return (str(name), str(strategy))


@dataclass
class Campaign:
    """A declarative sweep: specs x inputs x engines x config variants.

    Attributes
    ----------
    name:
        Campaign identifier (directory naming and reports only — it is *not*
        part of cell ids, so identical work shares cache entries across
        campaigns).
    specs:
        ``(spec name, strategy)`` pairs.  Bare names and
        :class:`~repro.core.specs.FunctionSpec` instances are accepted and
        normalized (instances are auto-registered under their own name).
    inputs:
        Explicit input tuples, or a :class:`SweepGrid` (expanded and stored as
        points).  Every input must match every spec's dimension.
    engines:
        Engine selectors; ``"auto"`` resolves per cell via
        :func:`resolve_engine`.
    configs:
        :class:`~repro.api.config.RunConfig` variants.  Each cell's config is
        a variant with the resolved engine and derived seed substituted.
    seed:
        Master seed.  Each cell's seed is derived from it by hashing the
        cell descriptor, so seeds are stable under re-expansion, independent
        of cell order, and distinct across cells.  ``None`` leaves the
        variants' own seeds in place (possibly unseeded = uncacheable).
    """

    name: str
    specs: Sequence[SpecLike]
    inputs: Union[SweepGrid, Sequence[Sequence[int]]]
    engines: Sequence[str] = ("auto",)
    configs: Sequence[RunConfig] = (RunConfig(),)
    seed: Optional[int] = None
    default_strategy: str = "auto"

    def __post_init__(self) -> None:
        self.specs = tuple(
            _normalize_spec_entry(entry, self.default_strategy) for entry in self.specs
        )
        if isinstance(self.inputs, SweepGrid):
            self.inputs = self.inputs.points()
        else:
            self.inputs = tuple(tuple(int(v) for v in x) for x in self.inputs)
        self.engines = tuple(self.engines)
        self.configs = tuple(self.configs)
        if not self.specs:
            raise ValueError("campaign needs at least one spec")
        if not self.inputs:
            raise ValueError("campaign needs at least one input")
        if not self.engines:
            raise ValueError("campaign needs at least one engine")
        if not self.configs:
            raise ValueError("campaign needs at least one config variant")

    # -- expansion -------------------------------------------------------------

    def expand(self) -> List[Cell]:
        """The deterministic cell list (duplicate descriptors collapsed)."""
        cells: List[Cell] = []
        seen: set = set()
        frames: Dict[Tuple[str, str, str, int], Tuple[str, str]] = {}
        for spec_name, strategy in self.specs:
            fingerprint = registered_fingerprint(spec_name)
            for x in self.inputs:
                check_input(spec_name, x)
                for selector in self.engines:
                    for variant in self.configs:
                        cell = make_cell(
                            len(cells), spec_name, strategy, fingerprint, x,
                            selector, variant, self.seed, frames,
                        )
                        if cell.cell_id not in seen:
                            seen.add(cell.cell_id)
                            cells.append(cell)
        return cells

    # -- manifest persistence --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "specs": [list(entry) for entry in self.specs],
            "inputs": [list(x) for x in self.inputs],
            "engines": list(self.engines),
            "configs": [config.to_dict() for config in self.configs],
            "seed": self.seed,
            "default_strategy": self.default_strategy,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Campaign":
        return cls(
            name=data["name"],
            specs=[tuple(entry) for entry in data["specs"]],
            inputs=[tuple(x) for x in data["inputs"]],
            engines=tuple(data["engines"]),
            configs=tuple(RunConfig.from_dict(c) for c in data["configs"]),
            seed=data.get("seed"),
            default_strategy=data.get("default_strategy", "auto"),
        )

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "Campaign":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# The campaign lifecycle: expand -> skip done -> cache -> execute -> aggregate
# ---------------------------------------------------------------------------


@dataclass
class CampaignRun:
    """What :func:`run_campaign` hands back: rows, summary, and provenance counts."""

    campaign: Campaign
    out_dir: str
    results: List[CellResult]
    summary: CampaignSummary
    total_cells: int
    already_done: int = 0
    from_cache: int = 0
    executed: int = 0

    @property
    def complete(self) -> bool:
        return self.already_done + self.from_cache + self.executed >= self.total_cells


def run_campaign(
    campaign: Campaign,
    out_dir: str,
    workers: int = 1,
    chunksize: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    executor=None,
    progress: Optional[Callable[[CellResult, str], None]] = None,
    retry_errors: bool = False,
    cells: Optional[List[Cell]] = None,
    trace: bool = False,
) -> CampaignRun:
    """Run (or resume) a campaign into ``out_dir``; see the module docstring.

    ``out_dir`` receives ``manifest.json``, ``results.jsonl``,
    ``summary.json``, and a ``provenance.json`` run manifest (version, code
    salt, engine list, spec fingerprints, one cache key per declared config
    variant — see
    :func:`repro.obs.provenance.run_manifest`).  Running into a directory
    that already holds a *different* campaign manifest is an error; the
    *same* campaign resumes.  ``cache_dir=None`` disables the
    content-addressed cache.  ``progress`` (if given) is called per cell with
    its result and its source: ``"done"`` (recorded by a previous run),
    ``"cache"``, or ``"run"``.  Recorded error rows normally count as done;
    ``retry_errors=True`` re-executes them (the retried row supersedes the
    old one when results are collected).  ``cells`` accepts a precomputed
    ``campaign.expand()`` so callers that already expanded (the CLI, for its
    progress total) skip a second expansion.

    ``trace=True`` additionally writes ``trace.jsonl`` — a schema-versioned
    span/event trace (``repro.obs.trace``) covering the campaign span, one
    ``lab.cell`` span per executed cell, worker heartbeats, and (for
    in-process cells) per-trial ``kernel.run`` spans — readable with
    ``python -m repro trace``.  Tracing is installed process-globally for
    the duration of the call and restored afterwards.

    Results are appended to the store in deterministic cell order (the pool
    executor's ordered ``imap`` guarantees this even across workers).
    """
    # lab.executor imports this module, so its names are bound at call time
    from repro.lab.executor import (
        PoolExecutor,
        SerialExecutor,
        memo_lookup,
        memo_publish,
    )

    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        existing = Campaign.load(manifest_path)
        if existing.to_dict() != campaign.to_dict():
            raise ValueError(
                f"{out_dir!r} already holds a different campaign "
                f"({existing.name!r}); pick a fresh --out directory"
            )
    else:
        campaign.save(manifest_path)

    store = ResultStore(os.path.join(out_dir, RESULTS_NAME))
    if cells is None:
        cells = campaign.expand()

    fingerprints: Dict[str, str] = {}
    for cell in cells:
        fingerprints.setdefault(cell.spec, cell.spec_fingerprint)
    provenance = run_manifest(
        engines=campaign.engines,
        spec_fingerprints=fingerprints,
        extra={
            "campaign": campaign.name,
            "seed": campaign.seed,
            "total_cells": len(cells),
            # one per declared variant, not per cell: a cell's config is its
            # variant with the resolved engine and derived seed substituted
            "config_cache_keys": sorted({c.cache_key() for c in campaign.configs}),
        },
    )

    def publish_provenance() -> None:
        # Fold in a distributed backend's per-worker counters (duck-typed, so
        # the seam stays "anything with map()"); an unchanged file is kept.
        stats_hook = getattr(executor, "worker_stats", None)
        worker_stats = stats_hook() if callable(stats_hook) else None
        if worker_stats:
            provenance["workers"] = worker_stats
        write_json(os.path.join(out_dir, PROVENANCE_NAME), provenance)

    publish_provenance()

    sink = None
    previous_tracer = None
    if trace:
        sink = JsonlTraceSink(os.path.join(out_dir, TRACE_NAME), manifest=provenance)
        previous_tracer = install_tracer(Tracer(sink))
    tracer = get_tracer()
    campaign_span = tracer.span(
        "campaign.run", campaign=campaign.name, cells=len(cells), workers=workers
    )
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    campaign_span.__enter__()
    try:
        # The one scan of the store: every later row is added here as it is
        # appended (last write wins by cell id), so results and the summary
        # never re-read the file.
        recorded = {row.cell_id: row for row in store.iter_rows()}
        corrupt_lines_skipped = store.last_scan.corrupt_interior
        already_done = 0
        pending: List[Cell] = []
        for cell in cells:
            row = recorded.get(cell.cell_id)
            if row is not None and (row.ok or not retry_errors):
                already_done += 1
                if progress:
                    progress(row, "done")
            else:
                pending.append(cell)

        from_cache = 0
        to_run: List[Cell] = []
        for cell in pending:
            result = memo_lookup(cache, cell)
            if result is not None:
                store.append(result)
                recorded[result.cell_id] = result
                from_cache += 1
                tracer.event("cache.hit", cell=cell.cell_id, spec=cell.spec)
                if progress:
                    progress(result, "cache")
            else:
                to_run.append(cell)

        if executor is None:
            executor = (
                PoolExecutor(workers=workers, chunksize=chunksize, timeout=timeout)
                if workers > 1
                else SerialExecutor(timeout=timeout)
            )

        executed = 0
        for cell, result in zip(to_run, executor.map(to_run)):
            row = store.append(result)
            recorded[result.cell_id] = result
            executed += 1
            memo_publish(cache, cell, result, row)
            if progress:
                progress(result, "run")

        results = [
            recorded[cell.cell_id] for cell in cells if cell.cell_id in recorded
        ]
        summary = summarize(results, campaign=campaign.name)
        summary.corrupt_lines_skipped = corrupt_lines_skipped
        write_json(os.path.join(out_dir, SUMMARY_NAME), summary.to_dict())
        publish_provenance()
        campaign_span.set(
            executed=executed, from_cache=from_cache, already_done=already_done
        )
    finally:
        campaign_span.__exit__(None, None, None)
        if previous_tracer is not None:
            install_tracer(previous_tracer)
        if sink is not None:
            sink.close()
        # The final group commit of the store and the cache segment.
        try:
            store.close()
        finally:
            if cache is not None:
                cache.close()

    shards_hook = getattr(executor, "trace_shards", None)
    if sink is not None and callable(shards_hook):
        shards = shards_hook()
        if shards:
            # The coordinator's own trace is shard zero; workers' cell spans
            # merge in deduplicated by cell id.
            trace_path = os.path.join(out_dir, TRACE_NAME)
            merge_trace_files(trace_path, [trace_path] + list(shards), manifest=provenance)

    return CampaignRun(
        campaign=campaign,
        out_dir=out_dir,
        results=results,
        summary=summary,
        total_cells=len(cells),
        already_done=already_done,
        from_cache=from_cache,
        executed=executed,
    )


def resume_campaign(out_dir: str, **kwargs) -> CampaignRun:
    """Resume an interrupted campaign from its ``manifest.json``.

    Pure convenience over :func:`run_campaign` — running the same campaign
    into the same directory *is* resumption; this just reloads the manifest
    so callers (the CLI) need only the directory.
    """
    manifest_path = os.path.join(str(out_dir), MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(
            f"no campaign manifest at {manifest_path!r}; was this directory "
            f"produced by `repro run` / run_campaign?"
        )
    campaign = Campaign.load(manifest_path)
    return run_campaign(campaign, out_dir, **kwargs)
