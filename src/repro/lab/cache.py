"""Content-addressed on-disk cache for campaign cell results.

A cell's cache key is a SHA-256 over the *content* that determines its result:

* the **spec fingerprint** — the function tabulated on a bounded grid plus its
  name and dimension (callables cannot be hashed, but their values can);
* the construction **strategy** (different strategies build different CRNs);
* the **input** vector;
* the full :meth:`~repro.api.config.RunConfig.cache_key` (trials, step budget,
  quiescence window, seed, engine — seeded runs are deterministic, so the seed
  is part of the content);
* the **engine** name (also in the config, kept explicit for readability);
* a **code-version salt** (:data:`CODE_SALT`) bumped whenever simulation
  semantics change, so stale results can never be replayed across a
  behavioural change.

Only seeded, successful cells are cached: an unseeded run is *meant* to be
fresh entropy, and an error may be environmental.  Values are the
:meth:`~repro.lab.store.CellResult.deterministic_dict` payload, stored one
JSON file per key, sharded by the first two hex digits.  Writes are atomic
(temp file + ``os.replace``), so a concurrent or killed writer can never
publish a torn entry; corrupted entries read as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Optional

from repro.core.specs import FunctionSpec
from repro.obs.metrics import MetricsRegistry, global_registry

#: Bump when a change to the simulators / constructions invalidates old results.
#: "repro-lab-4": the "nrm" next-reaction engine landed.  Existing engines'
#: seeded streams are locked bit for bit (tests/test_kernel.py), but the
#: engine axis gained a value; the salt keeps any pre-NRM cache from ever
#: answering for (or colliding with) a run that could now resolve to "nrm".
CODE_SALT = "repro-lab-5"

#: Side length of the grid a spec is tabulated on for fingerprinting.
FINGERPRINT_BOUND = 5

#: Default cache root (relative to the working directory; see .gitignore).
DEFAULT_CACHE_DIR = ".repro-cache"


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_fingerprint(spec: FunctionSpec, bound: int = FINGERPRINT_BOUND) -> str:
    """A content hash of a spec: name, dimension, and values on ``[0, bound)^d``.

    Two specs with the same name but different behaviour (an edited catalog
    entry, a differently-parameterized factory) fingerprint differently, so
    cached results can never be attributed to the wrong function.
    """
    values = [[list(x), spec(x)] for x in spec.grid(bound)]
    blob = _canonical_json(
        {"name": spec.name, "dimension": spec.dimension, "bound": bound, "values": values}
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_cache_key(
    spec_fingerprint_hex: str,
    strategy: str,
    input_value,
    engine: str,
    config_key: str,
    salt: str = CODE_SALT,
) -> str:
    """The content address of one cell's result (see the module docstring)."""
    blob = _canonical_json(
        {
            "spec_fp": spec_fingerprint_hex,
            "strategy": strategy,
            "input": [int(v) for v in input_value],
            "engine": engine,
            "config": config_key,
            "salt": salt,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed key -> JSON-payload store under a root directory.

    Every instance reports into a :class:`repro.obs.metrics.MetricsRegistry`
    (the shared default unless one is passed — the server passes its own so
    ``GET /v1/metrics`` and ``/v1/stats`` read the same series):

    * ``repro_result_cache_requests_total{result="hit"|"miss"}`` — ``get``
      outcomes;
    * ``repro_result_cache_get_seconds`` / ``repro_result_cache_put_seconds``
      — lookup and publish (write + fsync + rename) latency histograms, the
      numbers that expose a cache root on slow storage.

    A cache is always truthy, empty or not: ``if cache:`` asks whether there
    is a cache, never how full it is.  ``len(cache)`` is an O(entries) walk
    of the whole directory tree, kept off every per-cell and per-request
    path; ``repr`` does not walk.
    """

    def __init__(
        self, root: str = DEFAULT_CACHE_DIR, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = str(root)
        self.registry = registry if registry is not None else global_registry()
        requests = self.registry.counter(
            "repro_result_cache_requests_total",
            "ResultCache.get outcomes by result (hit/miss).",
            labels=("result",),
        )
        self._hits = requests.labels(result="hit")
        self._misses = requests.labels(result="miss")
        self._get_seconds = self.registry.histogram(
            "repro_result_cache_get_seconds", "ResultCache.get latency."
        )
        self._put_seconds = self.registry.histogram(
            "repro_result_cache_put_seconds",
            "ResultCache.put latency (write + fsync + atomic rename).",
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` (corruption reads as a miss)."""
        start = time.perf_counter()
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            data = None
        finally:
            self._get_seconds.observe(time.perf_counter() - start)
        if not isinstance(data, dict):
            self._misses.inc()
            return None
        self._hits.inc()
        return data

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically and durably publish ``payload`` under ``key``.

        Write-to-temp + ``fsync`` + ``os.replace``: a reader (including a
        *second server process* sharing this root as its memo) can only ever
        observe the old entry, the complete new entry, or a miss — never a
        torn write — and a crash between the fsync and the rename leaves the
        published entry intact.  Last writer wins, which is sound because
        entries are content-addressed: two writers racing on one key are
        writing the same payload.
        """
        start = time.perf_counter()
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w",
            encoding="utf-8",
            dir=os.path.dirname(path),
            prefix=".tmp-",
            delete=False,
        )
        try:
            with handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._put_seconds.observe(time.perf_counter() - start)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        """Number of entries: an O(entries) directory walk, for reports only."""
        if not os.path.isdir(self.root):
            return 0
        count = 0
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                count += sum(1 for name in os.listdir(shard_dir) if name.endswith(".json"))
        return count

    def __repr__(self) -> str:
        return f"ResultCache({self.root!r})"
