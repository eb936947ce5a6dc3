"""``repro.serve`` — simulation-as-a-service over the Workbench and lab cache.

A dependency-free asyncio HTTP front end: the pure-python core stays the
product, and this package is an *optional* deployment shell around it.  The
server exposes the Workbench workflow as JSON endpoints::

    POST /v1/compile          build (and memoize) the CRN for a registered spec
    POST /v1/simulate         one seeded simulate cell, memoized in ResultCache
    POST /v1/expected_output  Monte-Carlo kinetic mean, memoized the same way
    POST /v1/verify           stable-computation verification
    POST /v1/jobs             submit a sweep/campaign grid to the worker pool
                              (or, with ``"backend": "shared-dir"`` and a
                              ``queue_dir``, to external ``python -m repro
                              worker`` processes over a shared work queue)
    GET  /v1/jobs/{id}        poll progress / collect results
    GET  /v1/jobs/{id}/results  stream rows so far as NDJSON (never buffered)
    DELETE /v1/jobs/{id}      cancel a running job
    GET  /v1/engines          registry capability metadata (EngineInfo.to_dict)
    GET  /v1/stats            cache hit-rate, per-engine counts, latency
                              quantiles (all read from the metrics registry)
    GET  /v1/metrics          the same registry as Prometheus text
    GET  /v1/health           liveness probe

The load-bearing idea is the **cache memo contract**: every simulate request
and every job cell is content-addressed exactly like a ``repro.lab`` campaign
cell (:func:`repro.lab.cache.cell_cache_key`), so identical seeded requests
are O(1) hits against the shared on-disk :class:`~repro.lab.cache.ResultCache`
— the second of two identical ``POST /v1/simulate`` calls returns a
byte-identical body without touching an engine, and server results are
interchangeable with campaign results run in-process.

Quickstart::

    python -m repro serve --port 8421 --workers 2 &
    curl -s -X POST localhost:8421/v1/simulate -d \
      '{"spec": "minimum", "input": [30, 50], "config": {"seed": 7}}'

or from Python, :class:`~repro.serve.client.ServeClient` (stdlib
``http.client``, same zero dependencies)::

    from repro.serve import ServeClient
    client = ServeClient(port=8421)
    result = client.simulate("minimum", (30, 50), config={"seed": 7})
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer, ServerThread

__all__ = ["ReproServer", "ServerThread", "ServeClient", "ServeError"]
