"""Endpoint handlers: the JSON API surface over the Workbench/lab stack.

Pure routing + translation: every handler parses a request with the
:mod:`repro.serve.protocol` schema helpers, delegates the actual work to the
existing layers (``repro.lab`` cells on the worker pool, the engine registry,
the verify harness), and renders a deterministic JSON payload.  No simulation
logic lives here.

The simulate endpoint is where the **cache memo contract** is visible: a
request denotes one campaign cell (:func:`repro.serve.jobs.single_cell`), the
cell routes through :meth:`~repro.serve.jobs.JobManager.execute_cell`, and
the response body is the canonical rendering of the cell's *deterministic*
row — so a cache hit and the miss that populated it are byte-identical, with
the provenance carried in the ``X-Repro-Cache`` header instead of the body.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.config import RunConfig
from repro.lab.cache import CODE_SALT, ResultCache, cell_cache_key, spec_fingerprint
from repro.lab.campaign import Campaign, SweepGrid, spec_factory_names
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.provenance import run_manifest
from repro.serve.jobs import JobManager, QueueFullError, single_cell
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ApiError,
    HttpRequest,
    Response,
    parse_config,
    parse_input,
    parse_spec_ref,
)
from repro.sim.registry import check_engine, registered_engines

#: Cache-key salt namespace for expected-output memo entries: same content
#: address inputs as simulate cells, different payload shape, so the two can
#: never answer for each other.
EXPECTED_OUTPUT_SALT = CODE_SALT + "/expected-output"


class ServerState:
    """Everything the handlers share: config, cache, pool, metrics, jobs."""

    def __init__(
        self,
        config: RunConfig,
        cache: Optional[ResultCache],
        pool,
        metrics: ServerMetrics,
        jobs: JobManager,
        version: str,
        workers: int,
    ) -> None:
        self.config = config
        self.cache = cache
        self.pool = pool
        self.metrics = metrics
        self.jobs = jobs
        self.version = version
        self.workers = workers


# ---------------------------------------------------------------------------
# Worker-pool task functions (module-level: they must ride a pickle)
# ---------------------------------------------------------------------------


def expected_output_task(
    spec_name: str, strategy: str, x: Sequence[int], config_dict: Dict[str, Any]
) -> float:
    from repro.lab.executor import _built_crn
    from repro.sim.runner import estimate_expected_output

    config = RunConfig.from_dict(config_dict)
    crn = _built_crn(spec_name, strategy)
    return float(estimate_expected_output(crn, tuple(x), config=config))


def verify_task(
    spec_name: str,
    strategy: str,
    inputs: Optional[List[Tuple[int, ...]]],
    method: str,
    exhaustive_limit: int,
    config_dict: Dict[str, Any],
) -> Dict[str, Any]:
    from repro.lab.campaign import resolve_spec
    from repro.lab.executor import _built_crn
    from repro.verify.stable import verify_stable_computation

    spec = resolve_spec(spec_name)
    config = RunConfig.from_dict(config_dict)
    crn = _built_crn(spec_name, strategy)
    report = verify_stable_computation(
        crn,
        spec,
        inputs=inputs,
        method=method,
        exhaustive_limit=exhaustive_limit,
        function_name=spec.name,
        config=config,
    )
    return {
        "crn_name": report.crn_name,
        "function_name": report.function_name,
        "passed": report.passed,
        "results": [
            {
                "input": list(result.input_value),
                "expected": result.expected,
                "method": result.method,
                "passed": result.passed,
                "observed_outputs": list(result.observed_outputs),
                "detail": result.detail,
            }
            for result in report.results
        ],
    }


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


async def handle_health(state: ServerState, request: HttpRequest) -> Response:
    return Response(payload={"status": "ok", "version": state.version})


async def handle_engines(state: ServerState, request: HttpRequest) -> Response:
    return Response(
        payload={"engines": [info.to_dict() for info in registered_engines()]}
    )


async def handle_stats(state: ServerState, request: HttpRequest) -> Response:
    payload = state.metrics.snapshot()
    payload["version"] = state.version
    payload["server"] = {
        "version": state.version,
        "workers": state.workers,
        "queue_limit": state.jobs.queue_limit,
        "pending_cells": state.jobs.pending_cells,
        "jobs_tracked": len(state.jobs.jobs),
    }
    payload["cache"]["enabled"] = state.cache is not None
    payload["cache"]["root"] = state.cache.root if state.cache is not None else None
    payload["provenance"] = run_manifest(
        config=state.config, extra={"workers": state.workers}
    )
    return Response(payload=payload)


async def handle_metrics(state: ServerState, request: HttpRequest) -> Response:
    """Prometheus text exposition of the server's metrics registry.

    Rendered from the *same* registry ``/v1/stats`` snapshots, including the
    :class:`~repro.lab.cache.ResultCache` hit/miss and latency series when the
    server owns a cache.
    """
    state.metrics.touch()
    return Response(
        body=render_prometheus(state.metrics.registry).encode("utf-8"),
        headers={"Content-Type": PROMETHEUS_CONTENT_TYPE},
    )


async def handle_compile(state: ServerState, request: HttpRequest) -> Response:
    data = request.json()
    spec_name, spec, strategy = parse_spec_ref(data)
    from repro.lab.executor import _built_crn  # per-process CRN memo

    loop = asyncio.get_running_loop()
    try:
        crn = await loop.run_in_executor(None, _built_crn, spec_name, strategy)
    except (ValueError, NotImplementedError) as exc:
        raise ApiError(422, f"cannot build a CRN for spec {spec_name!r}: {exc}") from None
    fingerprint = await loop.run_in_executor(None, spec_fingerprint, spec)
    return Response(
        payload={
            "spec": spec_name,
            "strategy": strategy,
            "dimension": spec.dimension,
            "fingerprint": fingerprint,
            "crn_name": crn.name,
            "reactions": len(crn.reactions),
            "species": len(crn.species()),
        }
    )


async def handle_simulate(state: ServerState, request: HttpRequest) -> Response:
    data = request.json()
    spec_name, spec, strategy = parse_spec_ref(data)
    config = parse_config(data, state.config)
    x = parse_input(data, spec.dimension)
    if config.engine != "auto":
        _check_engine_400(config.engine)
    cell = single_cell(spec_name, strategy, x, config)
    row, hit = await state.jobs.execute_cell(cell)
    if not row.ok:
        raise ApiError(500, f"simulation failed: {row.error}")
    return Response(
        payload=row.deterministic_dict(),
        headers={"X-Repro-Cache": "hit" if hit else "miss"},
    )


async def handle_expected_output(state: ServerState, request: HttpRequest) -> Response:
    data = request.json()
    spec_name, spec, strategy = parse_spec_ref(data)
    config = parse_config(data, state.config)
    x = parse_input(data, spec.dimension)
    if config.engine != "auto":
        _check_engine_400(config.engine)

    loop = asyncio.get_running_loop()
    fingerprint = await loop.run_in_executor(None, spec_fingerprint, spec)
    key = cell_cache_key(
        fingerprint, strategy, x, config.engine, config.cache_key(),
        salt=EXPECTED_OUTPUT_SALT,
    )
    cacheable = state.cache is not None and config.seed is not None
    state.metrics.record_engine_request(config.engine)
    if cacheable:
        cached = state.cache.get(key)
        if isinstance(cached, dict) and "expected_output" in cached:
            state.metrics.record_cache(True)
            return Response(payload=cached, headers={"X-Repro-Cache": "hit"})
        state.metrics.record_cache(False)

    try:
        value = await loop.run_in_executor(
            state.pool, expected_output_task, spec_name, strategy, x, config.to_dict()
        )
    except Exception as exc:  # noqa: BLE001 — pool task failures become 500s
        raise ApiError(500, f"expected_output failed: {type(exc).__name__}: {exc}") from None
    state.metrics.record_engine_executed(config.engine)
    payload = {
        "spec": spec_name,
        "strategy": strategy,
        "input": list(x),
        "engine": config.engine,
        "expected_output": value,
    }
    if cacheable:
        state.cache.put(key, payload)
    return Response(payload=payload, headers={"X-Repro-Cache": "miss"})


async def handle_verify(state: ServerState, request: HttpRequest) -> Response:
    data = request.json()
    spec_name, spec, strategy = parse_spec_ref(data)
    config = parse_config(data, state.config)
    method = data.get("method", "auto")
    if method not in ("auto", "exhaustive", "randomized"):
        raise ApiError(
            400,
            f"field 'method' must be 'auto', 'exhaustive', or 'randomized', got {method!r}",
        )
    exhaustive_limit = data.get("exhaustive_limit", 20_000)
    if isinstance(exhaustive_limit, bool) or not isinstance(exhaustive_limit, int) or exhaustive_limit < 1:
        raise ApiError(
            400, f"field 'exhaustive_limit' must be an integer >= 1, got {exhaustive_limit!r}"
        )
    inputs = None
    if data.get("inputs") is not None:
        raw_inputs = data["inputs"]
        if not isinstance(raw_inputs, list) or not raw_inputs:
            raise ApiError(400, f"field 'inputs' must be a nonempty list of input tuples")
        inputs = [
            parse_input({"inputs": entry}, spec.dimension, field_name="inputs")
            for entry in raw_inputs
        ]

    loop = asyncio.get_running_loop()
    try:
        payload = await loop.run_in_executor(
            state.pool,
            verify_task,
            spec_name,
            strategy,
            inputs,
            method,
            exhaustive_limit,
            config.to_dict(),
        )
    except Exception as exc:  # noqa: BLE001
        raise ApiError(500, f"verify failed: {type(exc).__name__}: {exc}") from None
    return Response(payload=payload)


async def handle_submit_job(state: ServerState, request: HttpRequest) -> Response:
    data = request.json()
    campaign, cells = _parse_job_campaign(data, state.config)
    queue_dir = _parse_job_backend(data)
    try:
        job = state.jobs.submit(campaign, cells, queue_dir=queue_dir)
    except QueueFullError as exc:
        raise ApiError(429, str(exc), retry_after=exc.retry_after) from None
    payload = {"id": job.id, "name": job.name, "state": job.state, "total": job.total}
    if queue_dir is not None:
        payload["backend"] = "shared-dir"
        payload["queue_dir"] = queue_dir
    return Response(status=202, payload=payload)


async def handle_job_results(state: ServerState, request: HttpRequest, job_id: str) -> Response:
    """``GET /v1/jobs/{id}/results`` — rows so far as streaming NDJSON.

    One canonical-JSON row per line, written row by row off
    :meth:`~repro.serve.jobs.Job.results_iter` with close-delimited framing —
    the server never materializes a million-cell body.  Pass
    ``X-Repro-Deterministic: 1`` to strip the provenance fields, leaving
    exactly the rows a serial run's store would dedupe to.
    """
    job = state.jobs.get(job_id)
    if job is None:
        raise ApiError(404, f"no job {job_id!r}")
    deterministic = request.headers.get("x-repro-deterministic", "0") == "1"

    def ndjson():
        from repro.serve.protocol import canonical_json

        for row in job.results_iter():
            payload = row.deterministic_dict() if deterministic else row.to_dict()
            yield canonical_json(payload) + b"\n"

    return Response(
        stream=ndjson(),
        headers={
            "Content-Type": "application/x-ndjson",
            "X-Repro-Job-State": job.state,
        },
    )


async def handle_get_job(state: ServerState, request: HttpRequest, job_id: str) -> Response:
    job = state.jobs.get(job_id)
    if job is None:
        raise ApiError(404, f"no job {job_id!r}")
    include_results = request.headers.get("x-repro-results", "1") != "0"
    workers = None
    if job.queue is not None:
        # Workers publish their stats by group commit and when idle, so read
        # them per request instead of freezing them when the last row lands.
        loop = asyncio.get_running_loop()
        workers = await loop.run_in_executor(None, job.queue.worker_stats)
    return Response(payload=job.to_dict(include_results=include_results, workers=workers))


async def handle_cancel_job(state: ServerState, request: HttpRequest, job_id: str) -> Response:
    job = state.jobs.cancel(job_id)
    if job is None:
        raise ApiError(404, f"no job {job_id!r}")
    return Response(
        payload={"id": job.id, "state": job.state, "cancel_requested": True}
    )


def _check_engine_400(engine: str) -> None:
    try:
        check_engine(engine)
    except ValueError as exc:
        raise ApiError(400, f"field 'config.engine' invalid: {exc}") from None


def _parse_job_backend(data: Any) -> Optional[str]:
    """The optional ``backend`` / ``queue_dir`` pair on a job submission.

    Returns the queue directory for a shared-dir job, or ``None`` for the
    default local-pool fan-out.  ``backend`` may be omitted when ``queue_dir``
    is given (it implies shared-dir), but a contradiction is a 400.
    """
    queue_dir = data.get("queue_dir")
    if queue_dir is not None and (not isinstance(queue_dir, str) or not queue_dir):
        raise ApiError(400, f"field 'queue_dir' must be a nonempty string, got {queue_dir!r}")
    backend = data.get("backend")
    if backend is None:
        backend = "shared-dir" if queue_dir is not None else "local"
    if backend not in ("local", "shared-dir"):
        raise ApiError(400, f"field 'backend' must be 'local' or 'shared-dir', got {backend!r}")
    if backend == "shared-dir" and queue_dir is None:
        raise ApiError(400, "backend 'shared-dir' requires field 'queue_dir'")
    if backend == "local" and queue_dir is not None:
        raise ApiError(400, "field 'queue_dir' only applies to backend 'shared-dir'")
    return queue_dir if backend == "shared-dir" else None


def _parse_job_campaign(data: Any, default_config: RunConfig) -> Tuple[Campaign, List]:
    """Translate a job request body into a Campaign + expanded cells.

    Shape::

        {"name": "sweep-1",
         "specs": ["minimum", ["add", "general"]],
         "inputs": [[1, 2], [3, 4]]  |  "grid": "0:5",
         "engines": ["python"],
         "config": {...} | "configs": [{...}, ...],
         "seed": 11, "strategy": "auto"}
    """
    if not isinstance(data, dict):
        raise ApiError(400, f"request body must be a JSON object, got {type(data).__name__}")
    name = data.get("name", "job")
    if not isinstance(name, str) or not name:
        raise ApiError(400, f"field 'name' must be a nonempty string, got {name!r}")

    raw_specs = data.get("specs")
    if isinstance(raw_specs, str):
        raw_specs = [raw_specs]
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ApiError(
            400,
            f"field 'specs' must be a nonempty list of registered spec names; "
            f"registered: {', '.join(spec_factory_names())}",
        )
    specs: List[Tuple[str, str]] = []
    default_strategy = data.get("strategy", "auto")
    if not isinstance(default_strategy, str) or not default_strategy:
        raise ApiError(400, f"field 'strategy' must be a nonempty string, got {default_strategy!r}")
    for position, entry in enumerate(raw_specs):
        if isinstance(entry, str):
            specs.append((entry, default_strategy))
        elif isinstance(entry, list) and len(entry) == 2 and all(isinstance(v, str) for v in entry):
            specs.append((entry[0], entry[1]))
        else:
            raise ApiError(
                400,
                f"field 'specs'[{position}] must be a spec name or a "
                f"[name, strategy] pair, got {entry!r}",
            )

    if (data.get("inputs") is None) == (data.get("grid") is None):
        raise ApiError(400, "exactly one of 'inputs' (list of tuples) or 'grid' (axis syntax) is required")
    if data.get("grid") is not None:
        grid_text = data["grid"]
        if not isinstance(grid_text, str) or not grid_text:
            raise ApiError(400, f"field 'grid' must be an axis string like '0:5', got {grid_text!r}")
        # dimension for single-axis replication comes from the first spec
        from repro.lab.campaign import resolve_spec

        try:
            dimension = resolve_spec(specs[0][0]).dimension
            inputs: Any = SweepGrid.parse(grid_text, dimension=dimension)
        except ValueError as exc:
            raise ApiError(400, f"field 'grid' invalid: {exc}") from None
    else:
        raw_inputs = data["inputs"]
        if not isinstance(raw_inputs, list) or not raw_inputs:
            raise ApiError(400, "field 'inputs' must be a nonempty list of input tuples")
        inputs = []
        for position, entry in enumerate(raw_inputs):
            if not isinstance(entry, (list, tuple)):
                raise ApiError(400, f"field 'inputs'[{position}] must be a list of integers, got {entry!r}")
            for value in entry:
                if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                    raise ApiError(
                        400,
                        f"field 'inputs'[{position}] must hold nonnegative integers, got {value!r}",
                    )
            inputs.append(tuple(entry))

    engines = data.get("engines", [default_config.engine])
    if isinstance(engines, str):
        engines = [engines]
    if not isinstance(engines, list) or not engines or not all(isinstance(e, str) and e for e in engines):
        raise ApiError(400, f"field 'engines' must be a nonempty list of engine names, got {engines!r}")
    for engine in engines:
        if engine != "auto":
            _check_engine_400(engine)

    if data.get("config") is not None and data.get("configs") is not None:
        raise ApiError(400, "pass either 'config' (one object) or 'configs' (a list), not both")
    if data.get("configs") is not None:
        raw_configs = data["configs"]
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ApiError(400, "field 'configs' must be a nonempty list of config objects")
        configs = tuple(parse_config({"config": entry}, default_config) for entry in raw_configs)
    else:
        configs = (parse_config(data, default_config),)

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ApiError(400, f"field 'seed' must be null or an integer, got {seed!r}")

    try:
        campaign = Campaign(
            name=name,
            specs=specs,
            inputs=inputs,
            engines=tuple(engines),
            configs=configs,
            seed=seed,
            default_strategy=default_strategy,
        )
        cells = campaign.expand()
    except ValueError as exc:
        raise ApiError(400, str(exc)) from None
    return campaign, cells


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

_FIXED_ROUTES = {
    ("GET", "/v1/health"): (handle_health, "GET /v1/health"),
    ("GET", "/v1/engines"): (handle_engines, "GET /v1/engines"),
    ("GET", "/v1/stats"): (handle_stats, "GET /v1/stats"),
    ("GET", "/v1/metrics"): (handle_metrics, "GET /v1/metrics"),
    ("POST", "/v1/compile"): (handle_compile, "POST /v1/compile"),
    ("POST", "/v1/simulate"): (handle_simulate, "POST /v1/simulate"),
    ("POST", "/v1/expected_output"): (handle_expected_output, "POST /v1/expected_output"),
    ("POST", "/v1/verify"): (handle_verify, "POST /v1/verify"),
    ("POST", "/v1/jobs"): (handle_submit_job, "POST /v1/jobs"),
}

#: ``/v1/jobs/{id}`` routes: (method, path suffix after the id, handler, label).
_JOB_ROUTES = (
    ("GET", "/results", handle_job_results, "GET /v1/jobs/{id}/results"),
    ("GET", "", handle_get_job, "GET /v1/jobs/{id}"),
    ("DELETE", "", handle_cancel_job, "DELETE /v1/jobs/{id}"),
    ("POST", "/cancel", handle_cancel_job, "POST /v1/jobs/{id}/cancel"),
)

_KNOWN_PATHS = {path for _method, path in _FIXED_ROUTES}

#: The metrics label of every request no route matches: a client's raw path
#: never becomes a label value, so the number of series stays bounded.
UNMATCHED = "unmatched"


def _route(request: HttpRequest):
    """``(label, handler, extra handler args)``; raises the 404/405 otherwise."""
    route = _FIXED_ROUTES.get((request.method, request.path))
    if route is not None:
        handler, endpoint = route
        return endpoint, handler, ()

    if request.path.startswith("/v1/jobs/"):
        tail = request.path[len("/v1/jobs/"):]
        for method, suffix, handler, endpoint in _JOB_ROUTES:
            job_id = tail[: len(tail) - len(suffix)] if tail.endswith(suffix) else ""
            if request.method == method and job_id and "/" not in job_id:
                return endpoint, handler, (job_id,)
        raise ApiError(405 if tail else 404, f"unsupported {request.method} on {request.path}")

    if request.path in _KNOWN_PATHS:
        raise ApiError(405, f"method {request.method} not allowed on {request.path}")
    raise ApiError(404, f"no route for {request.method} {request.path}")


async def dispatch(state: ServerState, request: HttpRequest) -> Response:
    """Answer one request and record it under its route template.

    Never raises: an :class:`ApiError` becomes its error response and any
    other exception a 500.  The label is fixed before the handler runs, so a
    handler's error is counted under its route, and every unmatched request
    under :data:`UNMATCHED`.
    """
    started = time.perf_counter()
    endpoint = UNMATCHED
    try:
        endpoint, handler, args = _route(request)
        response = await handler(state, request, *args)
    except ApiError as exc:
        response = Response.from_error(exc)
    except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the server
        response = Response.from_error(
            ApiError(500, f"internal error: {type(exc).__name__}: {exc}")
        )
    state.metrics.record_request(endpoint, response.status, time.perf_counter() - started)
    return response
